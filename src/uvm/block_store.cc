#include "uvm/block_store.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::uvm {

const BlockStore::Range *
BlockStore::rangeContaining(mem::BlockId b) const
{
    // First range strictly above b, then step back one: the only
    // candidate run that can contain it.
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), b,
        [](mem::BlockId v, const Range &r) { return v < r.first; });
    if (it == ranges_.begin() || b >= (it - 1)->end)
        return nullptr;
    return &*(it - 1);
}

BlockIndex
BlockStore::allocSlots(BlockIndex n)
{
    // First fit by lowest slot keeps slot assignment a pure function
    // of the register/unregister history (determinism) and packs the
    // slab's hot front.
    for (std::size_t i = 0; i < freeRuns_.size(); ++i) {
        FreeRun &fr = freeRuns_[i];
        if (fr.len < n)
            continue;
        BlockIndex base = fr.base;
        fr.base += n;
        fr.len -= n;
        if (fr.len == 0)
            freeRuns_.erase(freeRuns_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        return base;
    }
    BlockIndex base = static_cast<BlockIndex>(slab_.size());
    slab_.resize(slab_.size() + n);
    ids_.resize(ids_.size() + n, kNoBlock);
    return base;
}

void
BlockStore::freeSlots(BlockIndex base, BlockIndex n)
{
    auto it = std::lower_bound(
        freeRuns_.begin(), freeRuns_.end(), base,
        [](const FreeRun &fr, BlockIndex b) { return fr.base < b; });
    it = freeRuns_.insert(it, FreeRun{base, n});
    // Coalesce with the successor, then the predecessor.
    auto next = it + 1;
    if (next != freeRuns_.end() && it->base + it->len == next->base) {
        it->len += next->len;
        it = freeRuns_.erase(next) - 1;
    }
    if (it != freeRuns_.begin()) {
        auto prev = it - 1;
        if (prev->base + prev->len == it->base) {
            prev->len += it->len;
            freeRuns_.erase(it);
        }
    }
}

void
BlockStore::respanIndex()
{
    if (ranges_.empty()) {
        index_.clear();
        return;
    }
    // Grow or trim the front, keeping the entries both spans share,
    // then the back.
    mem::BlockId lo = ranges_.front().first;
    if (index_.empty())
        indexBase_ = lo;
    if (lo < indexBase_)
        index_.insert(index_.begin(), indexBase_ - lo, kNoBlockIndex);
    else
        index_.erase(index_.begin(),
                     index_.begin() +
                         static_cast<std::ptrdiff_t>(lo - indexBase_));
    indexBase_ = lo;
    index_.resize(ranges_.back().end - lo, kNoBlockIndex);
}

BlockIndex
BlockStore::registerRun(mem::BlockId first, mem::BlockId end)
{
    DEEPUM_ASSERT(first < end, "registering an empty block run");
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), first,
        [](const Range &r, mem::BlockId v) { return r.first < v; });
    if (it != ranges_.end() && it->first < end)
        sim::panic("registerRange: block %llu already registered",
                   static_cast<unsigned long long>(it->first));
    if (it != ranges_.begin() && (it - 1)->end > first)
        sim::panic("registerRange: block %llu already registered",
                   static_cast<unsigned long long>(first));

    BlockIndex n = static_cast<BlockIndex>(end - first);
    BlockIndex base = allocSlots(n);
    // allocSlots can reshuffle/grow; recompute the insertion point.
    it = std::lower_bound(
        ranges_.begin(), ranges_.end(), first,
        [](const Range &r, mem::BlockId v) { return r.first < v; });
    ranges_.insert(it, Range{first, end, base});
    respanIndex();
    for (BlockIndex i = 0; i < n; ++i) {
        slab_[base + i] = BlockInfo{};
        ids_[base + i] = first + i;
        index_[first - indexBase_ + i] = base + i;
    }
    size_ += n;
    return base;
}

void
BlockStore::unregisterRun(mem::BlockId first, mem::BlockId end)
{
    const Range *r = rangeContaining(first);
    if (r == nullptr)
        sim::panic("unregisterRange: unknown block %llu",
                   static_cast<unsigned long long>(first));
    if (r->first != first || r->end != end)
        sim::panic("unregisterRange: [%llu, %llu) is not a registered "
                   "run",
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(end));

    BlockIndex n = static_cast<BlockIndex>(end - first);
    BlockIndex base = r->base;
    for (BlockIndex i = 0; i < n; ++i) {
        DEEPUM_ASSERT(slab_[base + i].lruPrev == kNoBlockIndex &&
                          slab_[base + i].lruNext == kNoBlockIndex &&
                          lruHead_ != base + i,
                      "unregistering a block still linked in the LRU");
        slab_[base + i] = BlockInfo{};
        ids_[base + i] = kNoBlock;
        index_[first - indexBase_ + i] = kNoBlockIndex;
    }
    ranges_.erase(ranges_.begin() + (r - ranges_.data()));
    respanIndex();
    freeSlots(base, n);
    size_ -= n;
}

void
BlockStore::checkInvariants(sim::CheckContext &ctx) const
{
    // Run table: sorted, disjoint, sane slot spans, backrefs exact.
    std::size_t live = 0;
    mem::BlockId prev_end = 0;
    bool have_prev = false;
    for (const Range &r : ranges_) {
        ctx.require(r.first < r.end,
                    "empty registered run at block %llu",
                    static_cast<unsigned long long>(r.first));
        ctx.require(!have_prev || r.first >= prev_end,
                    "run [%llu, %llu) overlaps or precedes its "
                    "predecessor ending at %llu",
                    static_cast<unsigned long long>(r.first),
                    static_cast<unsigned long long>(r.end),
                    static_cast<unsigned long long>(prev_end));
        prev_end = r.end;
        have_prev = true;
        std::uint64_t n = r.end - r.first;
        live += n;
        ctx.require(std::uint64_t(r.base) + n <= slab_.size(),
                    "run [%llu, %llu) slots [%u, %llu) exceed the "
                    "%zu-slot slab",
                    static_cast<unsigned long long>(r.first),
                    static_cast<unsigned long long>(r.end), r.base,
                    static_cast<unsigned long long>(r.base + n),
                    slab_.size());
        BlockIndex i = r.base;
        for (mem::BlockId b = r.first; b != r.end; ++b, ++i)
            ctx.require(ids_[i] == b,
                        "slot %u backref names block %llu, run maps "
                        "block %llu",
                        i, static_cast<unsigned long long>(ids_[i]),
                        static_cast<unsigned long long>(b));
    }
    ctx.require(live == size_,
                "run table covers %zu blocks, live counter says %zu",
                live, size_);

    // Index: spans exactly [lowest first, highest end), and each entry
    // names nothing or the slot whose backref is that entry's id. As
    // backrefs are exact and free slots name no block, counting the
    // entries proves the index maps the registered ids and no others.
    std::uint64_t span =
        ranges_.empty() ? 0 : ranges_.back().end - ranges_.front().first;
    ctx.require(index_.size() == span &&
                    (ranges_.empty() ||
                     indexBase_ == ranges_.front().first),
                "index spans %zu ids from block %llu, registered runs "
                "span %llu",
                index_.size(), static_cast<unsigned long long>(indexBase_),
                static_cast<unsigned long long>(span));
    std::size_t mapped = 0;
    for (std::size_t k = 0; k < index_.size(); ++k) {
        BlockIndex i = index_[k];
        if (i == kNoBlockIndex)
            continue;
        ++mapped;
        mem::BlockId b = indexBase_ + k;
        ctx.require(i < ids_.size() && ids_[i] == b,
                    "index maps block %llu to slot %u, which backs "
                    "block %llu",
                    static_cast<unsigned long long>(b), i,
                    static_cast<unsigned long long>(
                        i < ids_.size() ? ids_[i] : kNoBlock));
    }
    ctx.require(mapped == live, "index maps %zu ids, %zu are registered",
                mapped, live);
    ctx.require(slab_.size() == ids_.size(),
                "slab holds %zu records, backref array %zu",
                slab_.size(), ids_.size());

    // Free list: sorted, coalesced, scrubbed records, and together
    // with the live runs covering the slab exactly.
    std::size_t freed = 0;
    BlockIndex prev_free_end = 0;
    bool have_free = false;
    for (const FreeRun &fr : freeRuns_) {
        ctx.require(fr.len > 0, "empty free run at slot %u", fr.base);
        ctx.require(!have_free || fr.base > prev_free_end,
                    "free run at slot %u not coalesced with "
                    "predecessor ending at %u",
                    fr.base, prev_free_end);
        prev_free_end = fr.base + fr.len;
        have_free = true;
        ctx.require(std::uint64_t(fr.base) + fr.len <= slab_.size(),
                    "free run [%u, %llu) exceeds the %zu-slot slab",
                    fr.base,
                    static_cast<unsigned long long>(fr.base + fr.len),
                    slab_.size());
        freed += fr.len;
        for (BlockIndex i = fr.base; i != fr.base + fr.len; ++i) {
            ctx.require(ids_[i] == kNoBlock,
                        "free slot %u still backrefs block %llu", i,
                        static_cast<unsigned long long>(ids_[i]));
            ctx.require(slab_[i].lruPrev == kNoBlockIndex &&
                            slab_[i].lruNext == kNoBlockIndex,
                        "free slot %u still linked in the LRU", i);
        }
    }
    ctx.require(live + freed == slab_.size(),
                "%zu live + %zu free slots do not cover the %zu-slot "
                "slab",
                live, freed, slab_.size());

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
        ctx.require(ids_[i] != kNoBlock,
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
       << " ranges=" << ranges_.size() << " index=[" << indexBase_
       << ", " << indexBase_ + index_.size() << ")"
       << " freeRuns=" << freeRuns_.size() << " lru=" << lruSize_
       << "}\n";
    for (const Range &r : ranges_)
        os << "  range [" << r.first << ", " << r.end << ") -> slots ["
           << r.base << ", " << r.base + (r.end - r.first) << ")\n";
    os << "  free:";
    for (const FreeRun &fr : freeRuns_)
        os << " [" << fr.base << ", " << fr.base + fr.len << ")";
    os << "\n";
}

} // namespace deepum::uvm
