#include "uvm/block_store.hh"

#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::uvm {

BlockIndex
BlockStore::registerRun(mem::BlockId first, mem::BlockId end)
{
    DEEPUM_ASSERT(first < end, "registering an empty block run");
    if (first < kFirstBlock)
        sim::panic("registerRange: block %llu lies below the UM heap",
                   static_cast<unsigned long long>(first));
    DEEPUM_ASSERT(end - kFirstBlock < kNoBlockIndex,
                  "block run beyond the 32-bit slot space");
    BlockIndex base = static_cast<BlockIndex>(first - kFirstBlock);
    BlockIndex stop = static_cast<BlockIndex>(end - kFirstBlock);
    if (stop > slab_.size()) {
        slab_.resize(stop);
        state_.resize(stop, SlotState::Free);
    }
    for (BlockIndex i = base; i != stop; ++i)
        if (state_[i] != SlotState::Free)
            sim::panic("registerRange: block %llu already registered",
                       static_cast<unsigned long long>(idAt(i)));

    for (BlockIndex i = base; i != stop; ++i) {
        slab_[i] = BlockInfo{};
        state_[i] = i == base ? SlotState::RunFirst : SlotState::RunRest;
    }
    size_ += stop - base;
    return base;
}

void
BlockStore::unregisterRun(mem::BlockId first, mem::BlockId end)
{
    BlockIndex base = find(first);
    if (base == kNoBlockIndex)
        sim::panic("unregisterRange: unknown block %llu",
                   static_cast<unsigned long long>(first));
    // Exactly one run: it starts at first, continues up to end, and
    // the slot at end (if any) does not continue it.
    bool exact = first < end && end - first <= state_.size() - base &&
                 state_[base] == SlotState::RunFirst;
    BlockIndex stop =
        exact ? static_cast<BlockIndex>(base + (end - first)) : base;
    for (BlockIndex i = base + 1; exact && i != stop; ++i)
        exact = state_[i] == SlotState::RunRest;
    if (!exact ||
        (stop != state_.size() && state_[stop] == SlotState::RunRest))
        sim::panic("unregisterRange: [%llu, %llu) is not a registered "
                   "run",
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(end));

    for (BlockIndex i = base; i != stop; ++i) {
        DEEPUM_ASSERT(slab_[i].lruPrev == kNoBlockIndex &&
                          slab_[i].lruNext == kNoBlockIndex &&
                          lruHead_ != i,
                      "unregistering a block still linked in the LRU");
        state_[i] = SlotState::Free;
    }
    size_ -= end - first;
}

void
BlockStore::checkInvariants(sim::CheckContext &ctx) const
{
    // State bytes: parallel to the slab, every continuation preceded
    // by its run, free slots unlinked, the live counter exact.
    ctx.require(state_.size() == slab_.size(),
                "%zu state bytes for a %zu-slot slab", state_.size(),
                slab_.size());
    std::size_t live = 0;
    SlotState prev_state = SlotState::Free;
    for (BlockIndex i = 0; i != state_.size(); ++i) {
        SlotState st = state_[i];
        ctx.require(st != SlotState::RunRest ||
                        prev_state != SlotState::Free,
                    "slot %u continues a run but follows a free slot", i);
        if (st == SlotState::Free)
            ctx.require(slab_[i].lruPrev == kNoBlockIndex &&
                            slab_[i].lruNext == kNoBlockIndex,
                        "free slot %u still linked in the LRU", i);
        else
            ++live;
        prev_state = st;
    }
    ctx.require(live == size_,
                "%zu slots are registered, live counter says %zu", live,
                size_);

    // Intrusive LRU: one doubly-linked list over live slots, link
    // symmetry, size agreement.
    std::size_t walked = 0;
    BlockIndex prev = kNoBlockIndex;
    for (BlockIndex i = lruHead_; i != kNoBlockIndex;
         i = slab_[i].lruNext) {
        ctx.require(i < slab_.size(),
                    "LRU link names slot %u outside the %zu-slot slab",
                    i, slab_.size());
        if (i >= slab_.size())
            break;
        ctx.require(state_[i] != SlotState::Free,
                    "LRU contains free slot %u", i);
        ctx.require(slab_[i].lruPrev == prev,
                    "LRU back-link of slot %u names %u, expected %u",
                    i, slab_[i].lruPrev, prev);
        prev = i;
        if (++walked > lruSize_)
            break; // cycle; the size check below reports it
    }
    ctx.require(walked == lruSize_,
                "LRU walk visited %zu slots, size counter says %zu",
                walked, lruSize_);
    ctx.require(lruTail_ == prev,
                "LRU tail names slot %u, walk ended at %u", lruTail_,
                prev);
}

void
BlockStore::dumpState(std::ostream &os) const
{
    os << "BlockStore{blocks=" << size_ << " slab=" << slab_.size()
       << " lru=" << lruSize_ << "}\n";
    for (BlockIndex i = 0; i != state_.size(); ++i) {
        if (state_[i] != SlotState::RunFirst)
            continue;
        BlockIndex e = i + 1;
        while (e != state_.size() && state_[e] == SlotState::RunRest)
            ++e;
        os << "  run [" << idAt(i) << ", " << idAt(e) << ") at slots ["
           << i << ", " << e << ")\n";
    }
}

} // namespace deepum::uvm
