/**
 * @file
 * Dense per-block metadata store for the UM driver.
 *
 * UM allocations are contiguous runs of 2 MiB blocks, so the store
 * maps BlockId -> dense slab index with a direct-mapped array over the
 * span of registered ids: one bounds check and one load, no hashing
 * and no search. The UM heap bounds that span (2048 entries, 8 KiB,
 * at the default 4 GiB heap). A small sorted table of registered runs
 * backs the rarer whole-run operations (range lookup, unregister,
 * BlockId-order iteration, the audit). The
 * BlockInfo records live in a contiguous slab (vector), the
 * least-recently-migrated list is intrusive prev/next slab indices
 * inside BlockInfo, and freed runs go on a coalescing free list so
 * register/unregister churn reuses slots instead of growing the slab.
 *
 * This replaces the driver's former unordered_map block table,
 * std::list LRU with its position side-map, and the outstanding-fault
 * hash set (now a bit in the record) — the per-event hashing and
 * pointer-chasing on the fault path's hottest lookups.
 *
 * Everything here is deterministic by construction: lookups are pure,
 * iteration orders are slab/BlockId order or the intrusive list, and
 * slot assignment depends only on the register/unregister history.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "mem/addr.hh"
#include "support/annotations.hh"
#include "uvm/block_info.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::uvm {

/** Dense BlockId -> BlockInfo store with an intrusive LRU. */
class BlockStore
{
  public:
    /** One registered run of blocks, mapped to contiguous slots. */
    struct Range {
        mem::BlockId first = kNoBlock; ///< first block of the run
        mem::BlockId end = kNoBlock;   ///< one past the last block
        BlockIndex base = kNoBlockIndex; ///< slab slot of `first`
    };

    // --- lookup (the fault-path hot probe) --------------------------

    /** Slab index of @p b, or kNoBlockIndex when unregistered. */
    DEEPUM_NOALLOC BlockIndex
    find(mem::BlockId b) const
    {
        // Unsigned wrap sends ids below the span past its end too.
        std::uint64_t off = b - indexBase_;
        return off < index_.size() ? index_[off] : kNoBlockIndex;
    }

    /** True if @p b is registered. */
    DEEPUM_NOALLOC bool
    contains(mem::BlockId b) const
    {
        return find(b) != kNoBlockIndex;
    }

    /** The record in slot @p i (must be a live slot). */
    DEEPUM_NOALLOC BlockInfo &at(BlockIndex i) { return slab_[i]; }
    DEEPUM_NOALLOC const BlockInfo &
    at(BlockIndex i) const
    {
        return slab_[i];
    }

    /** BlockId backing slot @p i (kNoBlock for free slots). */
    DEEPUM_NOALLOC mem::BlockId idAt(BlockIndex i) const { return ids_[i]; }

    /** Registered (live) blocks. */
    std::size_t size() const { return size_; }

    /** Total slab slots ever allocated (live + free); scratch-array
     * sizing bound for index-keyed side structures. */
    std::size_t slabSize() const { return slab_.size(); }

    /** The registered run containing @p b, or nullptr. */
    DEEPUM_NOALLOC const Range *rangeContaining(mem::BlockId b) const;

    // --- registration ----------------------------------------------

    /**
     * Register the run [first, end) and return the slab slot of
     * @p first; the run's blocks occupy contiguous slots with
     * default-constructed records. Panics if any block of the run is
     * already registered.
     */
    DEEPUM_INVALIDATES_VIEWS
    BlockIndex registerRun(mem::BlockId first, mem::BlockId end);

    /**
     * Unregister the run [first, end), which must exactly match one
     * registered run; its slots join the free list (coalesced). The
     * caller must already have unlinked resident blocks from the LRU.
     */
    DEEPUM_INVALIDATES_VIEWS
    void unregisterRun(mem::BlockId first, mem::BlockId end);

    // --- intrusive least-recently-migrated list ---------------------

    /** Append slot @p i (must not be linked) at the MRU end. */
    DEEPUM_NOALLOC void
    lruPushBack(BlockIndex i)
    {
        BlockInfo &bi = slab_[i];
        bi.lruPrev = lruTail_;
        bi.lruNext = kNoBlockIndex;
        if (lruTail_ != kNoBlockIndex)
            slab_[lruTail_].lruNext = i;
        else
            lruHead_ = i;
        lruTail_ = i;
        ++lruSize_;
    }

    /** Unlink slot @p i (must be linked). */
    DEEPUM_NOALLOC void
    lruErase(BlockIndex i)
    {
        BlockInfo &bi = slab_[i];
        if (bi.lruPrev != kNoBlockIndex)
            slab_[bi.lruPrev].lruNext = bi.lruNext;
        else
            lruHead_ = bi.lruNext;
        if (bi.lruNext != kNoBlockIndex)
            slab_[bi.lruNext].lruPrev = bi.lruPrev;
        else
            lruTail_ = bi.lruPrev;
        bi.lruPrev = kNoBlockIndex;
        bi.lruNext = kNoBlockIndex;
        --lruSize_;
    }

    /** Oldest-migrated slot (kNoBlockIndex when empty). */
    BlockIndex lruHead() const { return lruHead_; }

    /** Most-recently-migrated slot (kNoBlockIndex when empty). */
    BlockIndex lruTail() const { return lruTail_; }

    /** Linked (resident) blocks. */
    std::size_t lruSize() const { return lruSize_; }

    /**
     * Range-for view over the LRU as BlockIds, oldest migration
     * first — the shape the policies and audits consume. A
     * DEEPUM_VIEW: do not store one in a field/container or hold it
     * across registerRun()/unregisterRun() (slab growth and slot
     * reuse invalidate the traversal).
     */
    class DEEPUM_VIEW LruView
    {
      public:
        class iterator
        {
          public:
            iterator(const BlockStore *st, BlockIndex i)
                : st_(st), i_(i)
            {}

            mem::BlockId operator*() const { return st_->idAt(i_); }

            iterator &
            operator++()
            {
                i_ = st_->at(i_).lruNext;
                return *this;
            }

            bool
            operator==(const iterator &o) const
            {
                return i_ == o.i_;
            }
            bool
            operator!=(const iterator &o) const
            {
                return i_ != o.i_;
            }

          private:
            const BlockStore *st_;
            BlockIndex i_;
        };

        explicit LruView(const BlockStore *st) : st_(st) {}

        iterator begin() const { return {st_, st_->lruHead()}; }
        iterator end() const { return {st_, kNoBlockIndex}; }
        std::size_t size() const { return st_->lruSize(); }

      private:
        const BlockStore *st_;
    };

    DEEPUM_NOALLOC LruView lruOrder() const { return LruView(this); }

    // --- whole-store iteration (BlockId order, deterministic) -------

    /** Call fn(BlockId, BlockIndex) for every live block. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const Range &r : ranges_) {
            BlockIndex i = r.base;
            for (mem::BlockId b = r.first; b != r.end; ++b, ++i)
                fn(b, i);
        }
    }

    // --- validation (sim/validate.hh) -------------------------------

    /**
     * Audit the slab bookkeeping: run table sorted and disjoint, the
     * index spanning exactly the registered runs and mapping exactly
     * the registered ids to their slots, every live slot's backref
     * naming its mapped block, free runs
     * sorted/coalesced/disjoint from live slots with scrubbed
     * records, live + free covering the slab exactly, and the
     * intrusive LRU links forming one consistent list over live
     * slots.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the run table and free list (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /** A run of free slab slots. */
    struct FreeRun {
        BlockIndex base = kNoBlockIndex;
        BlockIndex len = 0;
    };

    /** Allocate @p n contiguous slots (first fit, else slab growth). */
    BlockIndex allocSlots(BlockIndex n);

    /** Return slots [base, base+n) to the free list, coalescing. */
    void freeSlots(BlockIndex base, BlockIndex n);

    /** Fit index_ to the span of ranges_ (new entries map nothing). */
    void respanIndex();

    std::vector<Range> ranges_;      ///< sorted by first block
    /**
     * BlockId - indexBase_ -> slot, kNoBlockIndex for unregistered
     * ids; spans [first of the lowest run, end of the highest run)
     * exactly, and is empty when nothing is registered.
     */
    std::vector<BlockIndex> index_;
    mem::BlockId indexBase_ = 0;     ///< BlockId of index_[0]
    std::vector<BlockInfo> slab_;    ///< records, dense by slot
    std::vector<mem::BlockId> ids_;  ///< slot -> block backref
    std::vector<FreeRun> freeRuns_;  ///< sorted by base, coalesced
    std::size_t size_ = 0;           ///< live blocks

    BlockIndex lruHead_ = kNoBlockIndex;
    BlockIndex lruTail_ = kNoBlockIndex;
    std::size_t lruSize_ = 0;
};

} // namespace deepum::uvm
