/**
 * @file
 * The hardware fault buffer.
 *
 * NVIDIA GPUs accumulate faulted accesses in an on-device circular
 * queue that the driver drains (paper Section 2.3). Multiple entries
 * for the same page can coexist; the driver dedupes during
 * preprocessing. We keep entries at UM-block granularity with a page
 * count, which is the granularity the driver manages anyway.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/kernel.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace deepum::gpu {

/** One faulted access recorded by the GPU. */
struct FaultEntry {
    mem::BlockId block;     ///< faulted UM block
    std::uint32_t pages;    ///< pages of the block the access needed
    bool write;             ///< access type
    sim::Tick raised;       ///< when the GPU raised it
};

/**
 * The pending fault entries, in arrival order.
 *
 * The driver reads a batch in place and then clears it; the storage
 * keeps its capacity, so steady-state fault handling never
 * allocates. No batch on the benchmark workloads exceeds one SM
 * batch (8 entries), so hardware capacity and overflow are not
 * modelled.
 */
class FaultBuffer
{
  public:
    /** Record a faulted access. */
    void
    push(const FaultEntry &e)
    {
        entries_.push_back(e);
        ++totalPushed_;
    }

    /** Every pending entry, oldest first. */
    const std::vector<FaultEntry> &entries() const { return entries_; }

    /** Drop every pending entry (the driver fetched them). */
    void clear() { entries_.clear(); }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::uint64_t totalPushed() const { return totalPushed_; }

  private:
    std::vector<FaultEntry> entries_;
    std::uint64_t totalPushed_ = 0;
};

} // namespace deepum::gpu
