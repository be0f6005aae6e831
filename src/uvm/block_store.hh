/**
 * @file
 * Dense per-block metadata store for the UM driver.
 *
 * Every UM allocation lies in the UM heap (mem::VaSpace hands out
 * block-aligned ranges from mem::kUmBase), so a block's slab slot is
 * simply its offset from the heap's first block: BlockId -> slot is
 * one subtraction, one bounds check and one state-byte load, with no
 * hashing, no search and no index to maintain. One state byte per
 * slot marks it free, the first block of a registered run, or a later
 * block of one; that is all unregisterRun needs to accept exactly one
 * registered run. The BlockInfo records live in a contiguous slab
 * (vector) that grows to the highest registered block and never
 * shrinks, and the least-recently-migrated list is intrusive
 * prev/next slab indices inside BlockInfo.
 *
 * A slot never changes owner: re-registering a freed block returns
 * the same slot with a fresh record, and no other block can ever
 * occupy it. Side arrays keyed by slot (the driver's fault dedupe,
 * the prefetcher's walk dedupe and protection stamps) therefore can
 * never alias two blocks.
 *
 * Everything here is deterministic by construction: lookups are pure
 * arithmetic, and iteration orders are slot (= BlockId) order or the
 * intrusive list.
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
    /** The block in slot 0: the UM heap's first block. */
    static constexpr mem::BlockId kFirstBlock = mem::blockOf(mem::kUmBase);

    // --- lookup (the fault-path hot probe) --------------------------

    /**
     * The slot @p b occupies whenever it is registered, or
     * kNoBlockIndex when it lies outside the slab. Pure arithmetic:
     * it also resolves blocks that are no longer (or not yet)
     * registered.
     */
    DEEPUM_NOALLOC BlockIndex
    slotOf(mem::BlockId b) const
    {
        // Unsigned wrap sends ids below the heap past the end too.
        std::uint64_t off = b - kFirstBlock;
        return off < state_.size() ? static_cast<BlockIndex>(off)
                                   : kNoBlockIndex;
    }

    /** Slab index of @p b, or kNoBlockIndex when unregistered. */
    DEEPUM_NOALLOC BlockIndex
    find(mem::BlockId b) const
    {
        BlockIndex i = slotOf(b);
        return i != kNoBlockIndex && state_[i] != SlotState::Free
                   ? i
                   : kNoBlockIndex;
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

    /** The block that owns slot @p i (whether or not registered). */
    DEEPUM_NOALLOC mem::BlockId
    idAt(BlockIndex i) const
    {
        return kFirstBlock + static_cast<mem::BlockId>(i);
    }

    /** Registered (live) blocks. */
    std::size_t size() const { return size_; }

    /** Slab slots: one past the highest block ever registered;
     * scratch-array sizing bound for index-keyed side structures. */
    std::size_t slabSize() const { return slab_.size(); }

    // --- registration ----------------------------------------------

    /**
     * Register the run [first, end) and return the slab slot of
     * @p first; the run's blocks occupy contiguous slots with
     * default-constructed records. Panics if the run starts below
     * the UM heap or any block of it is already registered.
     */
    DEEPUM_INVALIDATES_VIEWS
    BlockIndex registerRun(mem::BlockId first, mem::BlockId end);

    /**
     * Unregister the run [first, end), which must exactly match one
     * registered run; its slots become free. The caller must already
     * have unlinked resident blocks from the LRU.
     */
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
     * across registerRun() (slab growth invalidates the traversal).
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
        for (BlockIndex i = 0; i != state_.size(); ++i)
            if (state_[i] != SlotState::Free)
                fn(idAt(i), i);
    }

    // --- validation (sim/validate.hh) -------------------------------

    /**
     * Audit the slab bookkeeping: state bytes and records in step,
     * every run continuation preceded by its run, the live counter
     * exact, free slots unlinked, and the intrusive LRU links forming
     * one consistent list over live slots.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the registered runs (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /** What occupies a slot. */
    enum class SlotState : std::uint8_t {
        Free,     ///< not registered
        RunFirst, ///< first block of a registered run
        RunRest,  ///< a later block of the run that precedes it
    };

    std::vector<BlockInfo> slab_;    ///< records, slot = heap offset
    std::vector<SlotState> state_;   ///< per slot, parallel to slab_
    std::size_t size_ = 0;           ///< live blocks

    BlockIndex lruHead_ = kNoBlockIndex;
    BlockIndex lruTail_ = kNoBlockIndex;
    std::size_t lruSize_ = 0;
};

} // namespace deepum::uvm
