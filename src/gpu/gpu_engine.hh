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
 *
 * The engine is an actor with at most one pending event, and none
 * while it runs its next step in place: after a resident batch, or a
 * retirement whose on_done launched the next kernel, the next batch
 * runs without an event when nothing else is due by then
 * (sim::EventQueue::runAheadTo).
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
     * kernel may be in flight (single stream). @p on_done may launch
     * the next kernel, as its last act: that kernel then starts from
     * the retiring kernel's loop, in place when nothing else is due
     * first.
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
    /**
     * Issue SM batches and retire kernels until the engine stalls,
     * goes idle, or must wait for another event.
     */
    void advance();

    /**
     * Issue the next SM batch. @return false when it faulted (the
     * engine stalls); otherwise @p dt is the batch's compute time.
     */
    bool issueBatch(sim::Tick &dt);

    /**
     * Retire the kernel and run its on_done. @return true when that
     * launched the next kernel, which starts @p delay from now.
     */
    bool retire(sim::Tick &delay);

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

    // A launch made inside retire()'s on_done leaves its start to
    // advance(): the delay, and the event count at the launch.
    bool retiring_ = false;
    sim::Tick startDelay_ = 0;
    std::uint64_t launchSeq_ = 0;

    sim::Scalar kernelsLaunched_;
    sim::Scalar batchesIssued_;
    sim::Scalar computeTicks_;
    sim::Scalar stallTicks_;
    sim::Scalar faultsRaised_;
    sim::Scalar replays_;
};

} // namespace deepum::gpu
