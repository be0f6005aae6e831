/**
 * @file
 * Virtual-address-space allocator for the UM heap.
 *
 * Models what cudaMallocManaged() hands out: 2 MiB-aligned ranges in
 * a single shared address space. First-fit with coalescing on free.
 * UM allocations can exceed GPU memory (that is the whole point of
 * DeepUM); the only hard cap is the configured UM heap size, which
 * stands in for host-backing-store capacity.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>

#include "mem/addr.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::mem {

/**
 * First-fit VA allocator with 2 MiB-aligned grants.
 */
class VaSpace
{
  public:
    /**
     * A heap of @p capacity_bytes (== host backing capacity) starting
     * at kUmBase, where the driver's BlockStore expects every block.
     */
    explicit VaSpace(std::uint64_t capacity_bytes);

    /**
     * Allocate @p bytes (rounded up to whole pages), 2 MiB-aligned.
     * @return the base VA, or 0 when the heap is exhausted.
     */
    VAddr allocate(std::uint64_t bytes);

    /**
     * Release a prior allocation. @p va must be an address returned
     * by allocate() and not yet freed.
     */
    void release(VAddr va);

    /** @return the byte size of the allocation at @p va, or 0. */
    std::uint64_t sizeOf(VAddr va) const;

    /** @return true if @p va lies inside a live allocation. */
    bool contains(VAddr va) const;

    /** Bytes currently allocated (page-rounded). */
    std::uint64_t usedBytes() const { return usedBytes_; }

    /** High-watermark of usedBytes(). */
    std::uint64_t peakBytes() const { return peakBytes_; }

    /** Total heap capacity in bytes. */
    std::uint64_t capacityBytes() const { return capacity_; }

    /** Number of live allocations. */
    std::size_t liveAllocations() const { return live_.size(); }

    /**
     * Audit the allocator bookkeeping (sim/validate.hh): live and
     * free ranges must exactly tile [kUmBase, kUmBase + capacity)
     * without overlap, free neighbours must be coalesced, every live
     * grant must be block-aligned and page-rounded, and usedBytes
     * must equal the sum of live sizes.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the range maps (for violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    std::uint64_t capacity_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t peakBytes_ = 0;

    /** Live allocations: base -> byte size (page-rounded). */
    std::map<VAddr, std::uint64_t> live_;

    /** Free ranges: base -> byte size, coalesced, address-ordered. */
    std::map<VAddr, std::uint64_t> free_;
};

} // namespace deepum::mem
