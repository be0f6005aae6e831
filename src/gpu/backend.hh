/**
 * @file
 * Interface the GPU engine uses to talk to the memory driver.
 *
 * The engine hands the driver one SM batch at a time (accessBatch):
 * the driver reports which blocks fault, and records the accesses of
 * a batch that ran. Beyond that the engine only signals fault
 * interrupts and kernel boundaries; everything else (eviction,
 * prefetching, tables) lives behind this interface in the uvm/ and
 * core/ modules.
 */

#pragma once

#include <cstddef>
#include <span>

#include "gpu/fault_buffer.hh"
#include "gpu/kernel.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace deepum::gpu {

/** Driver-side interface for the GPU engine. */
class UvmBackend
{
  public:
    virtual ~UvmBackend() = default;

    /** @return true if @p block is resident in device memory. */
    virtual bool isResident(mem::BlockId block) const = 0;

    /**
     * The GPU raised a page-fault interrupt; entries are already in
     * the fault buffer. The driver should schedule fault handling.
     */
    virtual void faultInterrupt() = 0;

    /** A kernel is about to start executing on the GPU. */
    virtual void onKernelBegin(const KernelInfo &k) = 0;

    /** The running kernel finished all its accesses. */
    virtual void onKernelEnd(const KernelInfo &k) = 0;

    /** The GPU touched @p block (resident access, not a fault). */
    virtual void onBlockAccess(mem::BlockId block) = 0;

    /**
     * The SMs issue @p batch at @p now. Push one entry into @p fb per
     * distinct non-resident block, in first-access order, and return
     * how many were pushed. When none were, the batch ran: record
     * every access, in order (onBlockAccess).
     *
     * This default is written in terms of isResident and
     * onBlockAccess, so a forwarder that overrides only those sees
     * every call. The driver overrides it to probe its block store
     * inline, without a virtual call per access.
     */
    virtual std::size_t
    accessBatch(std::span<const BlockAccess> batch, sim::Tick now,
                FaultBuffer &fb)
    {
        return runBatch(
            batch, now, fb,
            [this](mem::BlockId b) { return isResident(b); },
            [this](mem::BlockId b) { onBlockAccess(b); });
    }

  protected:
    /**
     * accessBatch's contract, written once: @p resident(block) probes
     * residency and @p record(block) records one access. An access
     * whose block an earlier access of the batch named pushes nothing
     * (hardware can push duplicates, but one entry per block per
     * batch keeps driver work equal); that block is non-resident too,
     * so residency is not probed again.
     */
    template <typename Resident, typename Record>
    static std::size_t
    runBatch(std::span<const BlockAccess> batch, sim::Tick now,
             FaultBuffer &fb, Resident &&resident, Record &&record)
    {
        std::size_t pushed = 0;
        for (std::size_t i = 0; i != batch.size(); ++i) {
            const BlockAccess &a = batch[i];
            if (resident(a.block))
                continue;
            std::size_t j = 0;
            while (j != i && batch[j].block != a.block)
                ++j;
            if (j == i) {
                fb.push(FaultEntry{a.block, a.pages, a.write, now});
                ++pushed;
            }
        }
        if (pushed == 0)
            for (const BlockAccess &a : batch)
                record(a.block);
        return pushed;
    }
};

} // namespace deepum::gpu
