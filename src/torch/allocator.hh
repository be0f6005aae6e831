/**
 * @file
 * PyTorch-style caching GPU allocator (paper Section 5.2).
 *
 * Reproduces the CUDACachingAllocator rules that matter to DeepUM:
 *  - sizes round up to 512-byte multiples;
 *  - requests <= 1 MiB come from the *small* pool (2 MiB segments),
 *    larger ones from the *large* pool (20 MiB segments, or the
 *    rounded request when >= 10 MiB);
 *  - smallest-fit within a pool; blocks split when the remainder is
 *    usable; adjacent inactive blocks coalesce on free;
 *  - on segment-allocation failure the cache is emptied and the
 *    request retried before reporting out-of-memory.
 *
 * Every active/inactive transition is reported through the
 * SegmentSource — the hook DeepUM's invalidation optimization needs.
 *
 * The bookkeeping is flat so that a tape's steady-state replay
 * allocates nothing: PT-block records live in a slab (a vector plus
 * a free-slot list, neighbours linked by slot index), each pool is a
 * vector sorted by (size, addr), and the active blocks a vector
 * sorted by VA.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/stats.hh"
#include "torch/segment_source.hh"

namespace deepum::sim {
class EventQueue;
class Tracer;
}

namespace deepum::torch {

/** Which pool a PT block belongs to. */
enum class PoolKind : std::uint8_t { Small, Large };

/** Allocator size constants (mirroring PyTorch). */
constexpr std::uint64_t kMinBlockSize = 512;
constexpr std::uint64_t kSmallSize = 1 * sim::kMiB;
constexpr std::uint64_t kSmallBuffer = 2 * sim::kMiB;
constexpr std::uint64_t kLargeBuffer = 20 * sim::kMiB;
constexpr std::uint64_t kMinLargeAlloc = 10 * sim::kMiB;
constexpr std::uint64_t kRoundLarge = 2 * sim::kMiB;

/** The caching allocator. */
class CachingAllocator
{
  public:
    /**
     * Destruction tears down bookkeeping only: the source may already
     * be gone at simulation teardown, so segments are not handed back.
     */
    CachingAllocator(SegmentSource &src, sim::StatSet &stats);

    CachingAllocator(const CachingAllocator &) = delete;
    CachingAllocator &operator=(const CachingAllocator &) = delete;

    /**
     * Attach a tracer (with the clock it should stamp events with):
     * malloc/free instants and an activeBytes counter series appear
     * on the allocator track.
     */
    void
    attachTracer(const sim::EventQueue *eq, sim::Tracer *tr)
    {
        traceClock_ = eq;
        tracer_ = tr;
    }

    /**
     * Allocate @p size bytes.
     * @return the PT block base VA, or 0 on out-of-memory (after an
     * emptyCache() retry).
     */
    mem::VAddr malloc(std::uint64_t size);

    /** Return the PT block at @p va to its pool (marks it inactive). */
    void free(mem::VAddr va);

    /** Rounded size of the active PT block at @p va (0 if unknown). */
    std::uint64_t sizeOf(mem::VAddr va) const;

    /** Release every fully-free cached segment back to the source. */
    void emptyCache();

    /** Rounding helpers, exposed for tests. */
    static std::uint64_t roundSize(std::uint64_t size);
    static std::uint64_t segmentSizeFor(std::uint64_t rounded);

    // Introspection -------------------------------------------------

    std::uint64_t activeBytes() const { return activeBytes_; }
    std::uint64_t cachedBytes() const { return cachedBytes_; }
    std::uint64_t reservedBytes() const { return reservedBytes_; }
    std::size_t activeBlockCount() const { return active_.size(); }
    std::size_t segmentCount() const { return segments_; }

    /** Free pool blocks in a pool (tests). */
    std::size_t poolBlockCount(PoolKind pool) const;

  private:
    /** Index of a PtBlock record in blocks_. */
    using Slot = std::uint32_t;
    static constexpr Slot kNoSlot = ~Slot(0);

    struct PtBlock {
        mem::VAddr addr = 0;
        std::uint64_t size = 0;
        mem::VAddr segBase = 0;
        Slot prev = kNoSlot; ///< neighbour within the segment
        Slot next = kNoSlot;
        bool active = false;
        PoolKind pool = PoolKind::Large;
    };

    /** A free block, ordered by (size, addr) within its pool. */
    struct PoolEntry {
        std::uint64_t size;
        mem::VAddr addr;
        Slot slot;

        bool
        operator<(const PoolEntry &o) const
        {
            return size != o.size ? size < o.size : addr < o.addr;
        }
    };

    /** An active block, ordered by addr. */
    struct ActiveEntry {
        mem::VAddr addr;
        Slot slot;
    };

    using Pool = std::vector<PoolEntry>;

    Pool &poolFor(PoolKind kind);

    /** A fresh record, from the free-slot list when it has one. */
    Slot newBlock();

    /** Pool block @p s (tail of a split, or a coalesced survivor). */
    void poolInsert(Slot s);

    /** Take block @p s out of its pool. */
    void poolErase(Slot s);

    /** First active_ entry whose addr is not below @p va. */
    std::vector<ActiveEntry>::const_iterator
    activeLowerBound(mem::VAddr va) const;

    /** Smallest free block >= @p rounded, or kNoSlot. */
    Slot findFree(PoolKind kind, std::uint64_t rounded);

    /** Grab a fresh segment from the source (with retry-after-empty). */
    Slot allocSegmentBlock(PoolKind kind, std::uint64_t rounded);

    /** Split @p s so it is exactly @p rounded, pooling the tail. */
    void maybeSplit(Slot s, std::uint64_t rounded);

    /** Merge @p s with an inactive neighbour; returns the survivor. */
    Slot tryMerge(Slot s, Slot neighbour);

    SegmentSource &src_;
    const sim::EventQueue *traceClock_ = nullptr;
    sim::Tracer *tracer_ = nullptr;

    std::vector<PtBlock> blocks_;
    std::vector<Slot> freeSlots_; ///< released blocks_ entries
    Pool small_;
    Pool large_;
    std::vector<ActiveEntry> active_; ///< sorted by addr
    std::size_t segments_ = 0; ///< segments held from the source

    std::uint64_t activeBytes_ = 0;
    std::uint64_t cachedBytes_ = 0;
    std::uint64_t reservedBytes_ = 0;

    sim::Scalar allocs_;
    sim::Scalar frees_;
    sim::Scalar splits_;
    sim::Scalar merges_;
    sim::Scalar segmentsAllocated_;
    sim::Scalar segmentsReleased_;
    sim::Scalar cacheFlushes_;
    sim::Scalar oomEvents_;
    sim::Scalar peakActiveBytes_;
    sim::Scalar peakReservedBytes_;
};

} // namespace deepum::torch
