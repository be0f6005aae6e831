/**
 * @file
 * Training session: replays a torch::Tape on the simulated UM stack.
 *
 * Executes the prologue once, then the iteration body repeatedly,
 * binding symbolic tensors to PT blocks through the caching
 * allocator and launching kernels through the DeepUM runtime. At
 * every iteration boundary it snapshots time, fault counts, compute
 * and link activity — the raw series every table and figure of the
 * paper is computed from.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/runtime.hh"
#include "gpu/kernel.hh"
#include "gpu/pcie_link.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "torch/allocator.hh"
#include "torch/tape.hh"

namespace deepum::harness {

/** Counters sampled at the end of each training iteration. */
struct IterSnapshot {
    sim::Tick endTick = 0;
    std::uint64_t pageFaults = 0;   ///< cumulative uvm.pageFaults
    std::uint64_t computeTicks = 0; ///< cumulative gpu.computeTicks
    std::uint64_t linkBusyTicks = 0;
    std::uint64_t bytesHtoD = 0;
    std::uint64_t bytesDtoH = 0;
};

/** Replays one model's training loop. */
class Session
{
  public:
    /**
     * @param eq event queue (run() drains it)
     * @param rt the (DeepUM or naive-UM) runtime
     * @param alloc PyTorch-style caching allocator
     * @param stats registry holding the uvm./gpu. counters
     * @param link the PCIe link, for traffic snapshots
     * @param tape the compiled model
     * @param iterations training iterations to run
     * @param seed RNG seed for irregular (gather) kernels
     */
    Session(sim::EventQueue &eq, core::Runtime &rt,
            torch::CachingAllocator &alloc, sim::StatSet &stats,
            gpu::PcieLink &link, const torch::Tape &tape,
            std::uint32_t iterations, std::uint64_t seed,
            bool manual_prefetch = false);

    /**
     * Run to completion.
     * @return true on success, false if an allocation failed (OOM).
     */
    bool run();

    /** Per-iteration snapshots (one per completed iteration). */
    const std::vector<IterSnapshot> &snapshots() const { return snaps_; }

  private:
    /** Process steps until a launch is issued or the run ends. */
    void processSteps();

    /** Execute one non-launch step. @return false on OOM. */
    bool applyStep(const torch::TapeStep &step);

    /**
     * One tape op's kernel descriptor, kept across launches. Its
     * accesses depend only on the VAs its uses are bound to, so they
     * stay valid while every use is bound where it was at the build.
     */
    struct OpKernel {
        gpu::KernelInfo ki;
        std::vector<mem::VAddr> boundVa; ///< VA of each use at the build
    };

    /**
     * The descriptor of op @p op_index for this launch: rebuilt when
     * a use moved or the op gathers (gathers redraw every launch).
     */
    gpu::KernelInfo &kernelFor(std::int32_t op_index);

    /** Refill @p k from @p op with the current tensor bindings. */
    void buildKernel(const torch::TapeOp &op, OpKernel &k);

    /**
     * OC-DNN mode: issue cudaMemPrefetchAsync for the tensors of the
     * next launch following @p from (the manual prefetch a user
     * would insert in front of each DNN operation).
     */
    void prefetchNextOp(std::size_t from);

    sim::EventQueue &eq_;
    core::Runtime &rt_;
    torch::CachingAllocator &alloc_;
    sim::StatSet &stats_;
    /// Snapshot counters resolved once at construction (may be null
    /// when the system registers neither, e.g. a stats-less stack).
    const sim::Scalar *pageFaults_ = nullptr;
    const sim::Scalar *computeTicks_ = nullptr;
    gpu::PcieLink &link_;
    const torch::Tape &tape_;
    std::uint32_t iterations_;
    sim::Rng rng_;
    bool manualPrefetch_;

    std::vector<mem::VAddr> tensorVa_;
    bool inPrologue_ = true;
    std::size_t stepIdx_ = 0;
    std::uint32_t iterDone_ = 0;
    sim::Tick iterStart_ = 0; ///< trace: current iteration's begin tick
    bool oom_ = false;
    bool finished_ = false;

    std::vector<OpKernel> opKernels_;      ///< one per tape op
    std::vector<std::uint32_t> gatherIdx_; ///< Fisher-Yates scratch
    std::vector<IterSnapshot> snaps_;
};

} // namespace deepum::harness
