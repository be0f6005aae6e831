/**
 * @file
 * Backing store interface for the caching allocator.
 *
 * The allocator requests whole segments (cudaMalloc in stock
 * PyTorch, cudaMallocManaged under DeepUM) and reports PT-block
 * activity. The simulator's one implementation is UmSegmentSource
 * (UM heap + driver notification, DeepUM's mode); the non-UM
 * baselines run the tensor-granularity SwapExecutor, which has no
 * allocator.
 */

#pragma once

#include <cstdint>

#include "mem/addr.hh"

namespace deepum::torch {

/** Where the allocator gets segments from. */
class SegmentSource
{
  public:
    virtual ~SegmentSource() = default;

    /** Allocate a segment. @return base VA or 0 on failure. */
    virtual mem::VAddr allocSegment(std::uint64_t bytes) = 0;

    /** Release a segment previously returned by allocSegment(). */
    virtual void freeSegment(mem::VAddr va) = 0;

    /**
     * A PT-block range became inactive (returned to the pool) or
     * active again. This is the <10-line PyTorch patch of paper
     * Section 5.2; sources that cannot use it ignore it.
     */
    virtual void
    noteInactive(mem::VAddr va, std::uint64_t bytes, bool inactive)
    {
        (void)va;
        (void)bytes;
        (void)inactive;
    }
};

} // namespace deepum::torch
