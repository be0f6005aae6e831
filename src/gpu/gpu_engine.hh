/**
 * @file
 * Kernel-playback engine: the simulated GPU.
 *
 * Executes one kernel at a time (a single CUDA stream). The SMs
 * issue block accesses in batches of TimingConfig::smBatch; when a
 * batch touches non-resident blocks the engine pushes fault entries
 * into the FaultBuffer, raises an interrupt, and stalls until the
 * driver replays — modelling the per-SM TLB lockup described in
 * paper Section 2.2. Resident batches advance simulated compute
 * time proportionally: the batch [b, e) of an n-access kernel charges
 * floor(computeNs*e/n) - floor(computeNs*b/n), kept as a running
 * quotient and remainder so a batch costs no division.
 */

#pragma once

#include "gpu/backend.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/kernel.hh"
#include "gpu/timing.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace deepum::gpu {

/** The simulated GPU front end. */
class GpuEngine : public sim::SimObject
{
  public:
    /**
     * @param eq shared event queue
     * @param cfg timing parameters
     * @param fb the hardware fault buffer the driver drains
     * @param stats stat registry for engine counters
     */
    GpuEngine(sim::EventQueue &eq, const TimingConfig &cfg,
              FaultBuffer &fb, sim::StatSet &stats);

    /** Attach the driver; must happen before the first launch. */
    void setBackend(UvmBackend *backend) { backend_ = backend; }

    /**
     * Launch @p kernel; @p on_done fires when it retires.
     * The kernel object must stay alive until completion. Only one
     * kernel may be in flight (single stream).
     */
    void launch(const KernelInfo *kernel, sim::EventFn on_done);

    /**
     * Replay faulted accesses after the driver resolved them
     * (paper Figure 3 step 9).
     */
    void replay();

    /** True if a kernel is currently executing or stalled. */
    bool busy() const { return kernel_ != nullptr; }

    /** True if the engine is stalled waiting for fault handling. */
    bool stalled() const { return stalled_; }

    /** Accumulated pure-compute ticks across all kernels. */
    sim::Tick computeTicks() const { return computeTicks_.value(); }

    /** Accumulated fault-stall ticks across all kernels. */
    sim::Tick stallTicks() const { return stallTicks_.value(); }

  private:
    /** Issue the next SM batch or finish the kernel. */
    void advance();

    const TimingConfig &cfg_;
    FaultBuffer &fb_;
    UvmBackend *backend_ = nullptr;

    const KernelInfo *kernel_ = nullptr;
    sim::EventFn onDone_;
    std::size_t nextAccess_ = 0;

    // Compute charging. A full batch of s = smBatch accesses charges
    // batchQuot_ = floor(computeNs*s/n), plus one when the carried
    // remainder wraps past n; the batch that ends the trace charges
    // computeLeft_.
    sim::Tick batchQuot_ = 0;
    std::uint64_t batchRem_ = 0; ///< (computeNs*s) mod n
    std::uint64_t carry_ = 0;    ///< (computeNs*nextAccess_) mod n
    sim::Tick computeLeft_ = 0;  ///< computeNs not yet charged
    bool stalled_ = false;
    sim::Tick stallStart_ = 0;
    sim::Tick kernelStart_ = 0;

    sim::Scalar kernelsLaunched_;
    sim::Scalar batchesIssued_;
    sim::Scalar computeTicks_;
    sim::Scalar stallTicks_;
    sim::Scalar faultsRaised_;
    sim::Scalar replays_;
};

} // namespace deepum::gpu
