/**
 * @file
 * Observation hooks the DeepUM components attach to the UVM driver.
 *
 * The paper's correlator/prefetching/pre-eviction "kernel threads"
 * observe the fault stream and migration activity; these hooks are
 * how they see it without the base driver knowing about them.
 */

#pragma once

#include <vector>

#include "gpu/kernel.hh"
#include "mem/addr.hh"

namespace deepum::uvm {

/** Callback interface for driver events. */
class DriverListener
{
  public:
    virtual ~DriverListener() = default;

    /**
     * One preprocessed fault batch: deduped faulted UM blocks in
     * fault-buffer arrival order.
     */
    virtual void onFaultBatch(const std::vector<mem::BlockId> &blocks)
    {
        (void)blocks;
    }

    /** The running kernel retired. */
    virtual void onKernelEnd(const gpu::KernelInfo &k) { (void)k; }

    /** @p block became resident (@p was_prefetch: via prefetch). */
    virtual void
    onBlockMigrated(mem::BlockId block, bool was_prefetch)
    {
        (void)block;
        (void)was_prefetch;
    }

    /** The migration thread ran out of queued work. */
    virtual void onMigrationIdle() {}

    /**
     * The UM range covering blocks [@p first, @p end) was freed; any
     * learned state naming those blocks is now stale and must be
     * dropped (the allocator frees segments mid-run via emptyCache).
     */
    virtual void
    onRangeUnregistered(mem::BlockId first, mem::BlockId end)
    {
        (void)first;
        (void)end;
    }

    /** The GPU touched a resident @p block (hot path, keep cheap). */
    virtual void onBlockAccessed(mem::BlockId block) { (void)block; }

    /**
     * A prefetched block was touched by the GPU before eviction —
     * the prediction (made for @p exec_id) was right.
     */
    virtual void
    onPrefetchUseful(mem::BlockId block, std::uint32_t exec_id)
    {
        (void)block;
        (void)exec_id;
    }

    /**
     * A prefetched block was evicted untouched — the prediction made
     * for @p exec_id was wrong (its kernel ran without the block).
     */
    virtual void
    onPrefetchWasted(mem::BlockId block, std::uint32_t exec_id)
    {
        (void)block;
        (void)exec_id;
    }
};

} // namespace deepum::uvm
