#include "torch/allocator.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace deepum::torch {

CachingAllocator::CachingAllocator(SegmentSource &src,
                                   sim::StatSet &stats)
    : src_(src),
      allocs_(stats, "torch.allocs", "PT-block allocations served"),
      frees_(stats, "torch.frees", "PT-block frees"),
      splits_(stats, "torch.splits", "PT-block splits"),
      merges_(stats, "torch.merges", "PT-block coalesces"),
      segmentsAllocated_(stats, "torch.segmentsAllocated",
                         "segments requested from the source"),
      segmentsReleased_(stats, "torch.segmentsReleased",
                        "segments returned to the source"),
      cacheFlushes_(stats, "torch.cacheFlushes",
                    "emptyCache() retry passes"),
      oomEvents_(stats, "torch.oomEvents",
                 "allocation failures after retry"),
      peakActiveBytes_(stats, "torch.peakActiveBytes",
                       "high-watermark of active bytes"),
      peakReservedBytes_(stats, "torch.peakReservedBytes",
                         "high-watermark of reserved bytes")
{
}

std::uint64_t
CachingAllocator::roundSize(std::uint64_t size)
{
    if (size < kMinBlockSize)
        return kMinBlockSize;
    return mem::alignUp(size, kMinBlockSize);
}

std::uint64_t
CachingAllocator::segmentSizeFor(std::uint64_t rounded)
{
    if (rounded <= kSmallSize)
        return kSmallBuffer;
    if (rounded < kMinLargeAlloc)
        return kLargeBuffer;
    return mem::alignUp(rounded, kRoundLarge);
}

CachingAllocator::Pool &
CachingAllocator::poolFor(PoolKind kind)
{
    return kind == PoolKind::Small ? small_ : large_;
}

CachingAllocator::Slot
CachingAllocator::newBlock()
{
    if (freeSlots_.empty()) {
        blocks_.emplace_back();
        return static_cast<Slot>(blocks_.size() - 1);
    }
    Slot s = freeSlots_.back();
    freeSlots_.pop_back();
    blocks_[s] = PtBlock{};
    return s;
}

void
CachingAllocator::poolInsert(Slot s)
{
    const PtBlock &b = blocks_[s];
    Pool &pool = poolFor(b.pool);
    PoolEntry e{b.size, b.addr, s};
    pool.insert(std::lower_bound(pool.begin(), pool.end(), e), e);
}

void
CachingAllocator::poolErase(Slot s)
{
    const PtBlock &b = blocks_[s];
    Pool &pool = poolFor(b.pool);
    auto it = std::lower_bound(pool.begin(), pool.end(),
                               PoolEntry{b.size, b.addr, s});
    DEEPUM_ASSERT(it != pool.end() && it->slot == s,
                  "inactive block 0x%llx missing from its pool",
                  static_cast<unsigned long long>(b.addr));
    pool.erase(it);
}

std::vector<CachingAllocator::ActiveEntry>::const_iterator
CachingAllocator::activeLowerBound(mem::VAddr va) const
{
    return std::lower_bound(
        active_.begin(), active_.end(), va,
        [](const ActiveEntry &e, mem::VAddr v) { return e.addr < v; });
}

CachingAllocator::Slot
CachingAllocator::findFree(PoolKind kind, std::uint64_t rounded)
{
    Pool &pool = poolFor(kind);
    auto it = std::lower_bound(pool.begin(), pool.end(),
                               PoolEntry{rounded, 0, kNoSlot});
    if (it == pool.end())
        return kNoSlot;
    Slot s = it->slot;
    pool.erase(it);
    return s;
}

CachingAllocator::Slot
CachingAllocator::allocSegmentBlock(PoolKind kind, std::uint64_t rounded)
{
    std::uint64_t seg_size = segmentSizeFor(rounded);
    mem::VAddr va = src_.allocSegment(seg_size);
    if (va == 0) {
        // PyTorch behaviour: flush the cache and retry once.
        ++cacheFlushes_;
        emptyCache();
        va = src_.allocSegment(seg_size);
    }
    if (va == 0)
        return kNoSlot;

    ++segments_;
    ++segmentsAllocated_;
    reservedBytes_ += seg_size;
    peakReservedBytes_.max(reservedBytes_);

    Slot s = newBlock();
    PtBlock &b = blocks_[s];
    b.addr = va;
    b.size = seg_size;
    b.pool = kind;
    b.segBase = va;
    // The fresh segment is pool cache until handed out.
    src_.noteInactive(va, seg_size, true);
    cachedBytes_ += seg_size;
    return s;
}

void
CachingAllocator::maybeSplit(Slot s, std::uint64_t rounded)
{
    std::uint64_t remainder = blocks_[s].size - rounded;
    bool should_split = blocks_[s].pool == PoolKind::Small
                            ? remainder >= kMinBlockSize
                            : remainder > kSmallSize;
    if (!should_split)
        return;

    Slot r = newBlock(); // may move blocks_: take references after
    PtBlock &b = blocks_[s];
    PtBlock &rest = blocks_[r];
    rest.addr = b.addr + rounded;
    rest.size = remainder;
    rest.pool = b.pool;
    rest.segBase = b.segBase;
    rest.prev = s;
    rest.next = b.next;
    if (b.next != kNoSlot)
        blocks_[b.next].prev = r;
    b.next = r;
    b.size = rounded;

    poolInsert(r);
    ++splits_;
}

mem::VAddr
CachingAllocator::malloc(std::uint64_t size)
{
    std::uint64_t rounded = roundSize(size);
    PoolKind kind =
        rounded <= kSmallSize ? PoolKind::Small : PoolKind::Large;

    Slot s = findFree(kind, rounded);
    if (s == kNoSlot)
        s = allocSegmentBlock(kind, rounded);
    if (s == kNoSlot) {
        ++oomEvents_;
        return 0;
    }

    maybeSplit(s, rounded);

    PtBlock &b = blocks_[s];
    b.active = true;
    active_.insert(activeLowerBound(b.addr), ActiveEntry{b.addr, s});
    src_.noteInactive(b.addr, b.size, false);
    cachedBytes_ -= b.size;
    activeBytes_ += b.size;
    peakActiveBytes_.max(activeBytes_);
    ++allocs_;
    if (tracer_ != nullptr) {
        sim::Tick now = traceClock_->now();
        tracer_->instant(sim::Track::Allocator, "malloc", now,
                         {sim::Tracer::arg("bytes", b.size),
                          sim::Tracer::arg("pool",
                                           b.pool == PoolKind::Small
                                               ? "small"
                                               : "large")});
        tracer_->counter(sim::Track::Allocator, "activeBytes", now,
                         activeBytes_);
    }
    return b.addr;
}

CachingAllocator::Slot
CachingAllocator::tryMerge(Slot s, Slot neighbour)
{
    if (neighbour == kNoSlot || blocks_[neighbour].active)
        return s;
    poolErase(neighbour);
    // Keep the lower-addressed block as the survivor.
    Slot lo = blocks_[s].addr < blocks_[neighbour].addr ? s : neighbour;
    Slot hi = lo == s ? neighbour : s;
    PtBlock &l = blocks_[lo];
    const PtBlock &h = blocks_[hi];
    l.size += h.size;
    l.next = h.next;
    if (h.next != kNoSlot)
        blocks_[h.next].prev = lo;
    freeSlots_.push_back(hi);
    ++merges_;
    return lo;
}

void
CachingAllocator::free(mem::VAddr va)
{
    auto it = activeLowerBound(va);
    if (it == active_.end() || it->addr != va)
        sim::panic("CachingAllocator::free of unknown va 0x%llx",
                   static_cast<unsigned long long>(va));
    Slot s = it->slot;
    active_.erase(it);

    PtBlock &b = blocks_[s];
    b.active = false;
    src_.noteInactive(b.addr, b.size, true);
    activeBytes_ -= b.size;
    cachedBytes_ += b.size;
    ++frees_;
    if (tracer_ != nullptr) {
        sim::Tick now = traceClock_->now();
        tracer_->instant(sim::Track::Allocator, "free", now,
                         {sim::Tracer::arg("bytes", b.size)});
        tracer_->counter(sim::Track::Allocator, "activeBytes", now,
                         activeBytes_);
    }

    s = tryMerge(s, blocks_[s].prev);
    s = tryMerge(s, blocks_[s].next);
    poolInsert(s);
}

std::uint64_t
CachingAllocator::sizeOf(mem::VAddr va) const
{
    auto it = activeLowerBound(va);
    return it == active_.end() || it->addr != va
               ? 0
               : blocks_[it->slot].size;
}

void
CachingAllocator::emptyCache()
{
    // Release whole-segment blocks in pool order, (size, addr), and
    // keep the rest in place.
    auto sweep = [this](Pool &pool) {
        std::size_t kept = 0;
        for (const PoolEntry &e : pool) {
            const PtBlock &b = blocks_[e.slot];
            if (b.prev != kNoSlot || b.next != kNoSlot) {
                pool[kept++] = e;
                continue;
            }
            DEEPUM_ASSERT(b.addr == b.segBase,
                          "whole-segment block off its segment base");
            --segments_;
            cachedBytes_ -= b.size;
            reservedBytes_ -= b.size;
            // Balance the inactive ledger before the range vanishes.
            src_.noteInactive(b.addr, b.size, false);
            src_.freeSegment(b.addr);
            ++segmentsReleased_;
            freeSlots_.push_back(e.slot);
        }
        pool.resize(kept);
    };
    sweep(small_);
    sweep(large_);
}

std::size_t
CachingAllocator::poolBlockCount(PoolKind pool) const
{
    return pool == PoolKind::Small ? small_.size() : large_.size();
}

} // namespace deepum::torch
