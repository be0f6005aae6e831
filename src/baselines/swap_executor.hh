/**
 * @file
 * Tensor-granularity swap executor (non-UM semantics).
 *
 * Models the world the previous approaches live in: a kernel may
 * only launch once every tensor it touches is fully resident in
 * device memory — there is no page-fault safety net — so a working
 * set larger than usable device memory is an immediate OOM. Tensors
 * move whole over the PCIe link; prefetch (scheduled swap-ins) and
 * post-use swap-outs overlap with compute, demand swap-ins stall the
 * GPU. This coarse, all-or-nothing movement is exactly the contrast
 * the paper draws with DeepUM's UM-block granularity.
 *
 * Timeline simulation: a GPU clock and a link-free clock advance per
 * op; no event queue is needed because each policy's decisions are
 * sequential per kernel.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/oracle.hh"
#include "baselines/policy.hh"
#include "gpu/timing.hh"
#include "harness/energy.hh"
#include "sim/types.hh"
#include "torch/tape.hh"

namespace deepum::baselines {

/** Configuration shared by all baseline runs. */
struct SwapConfig {
    std::uint64_t capacityBytes = 256 * sim::kMiB;
    std::uint64_t hostBytes = 4 * sim::kGiB;
    gpu::TimingConfig timing;
    harness::EnergyModel energy;
    std::uint32_t iterations = 8;
    std::uint32_t warmup = 2;
};

/** Reduced result of a baseline run (mirrors harness::RunResult). */
struct SwapResult {
    bool ok = false;
    std::string reason; ///< failure cause when !ok

    sim::Tick ticksPerIter = 0;
    double secPer100Iters = 0.0;
    double energyJPerIter = 0.0;
    sim::Tick computeTicksPerIter = 0;
    std::uint64_t bytesInPerIter = 0;
    std::uint64_t bytesOutPerIter = 0;
    std::uint64_t demandStallsPerIter = 0;
    std::uint64_t evictionsPerIter = 0;
};

/** Runs one tape under one policy. */
class SwapExecutor
{
  public:
    SwapExecutor(const torch::Tape &tape, SwapPolicy &policy,
                 const SwapConfig &cfg);

    /**
     * Execute the configured number of iterations. Fatal unless
     * warmup < iterations.
     */
    SwapResult run();

  private:
    enum class Loc : std::uint8_t { None, Device, Host, Dropped };

    struct TState {
        bool exists = false;
        Loc loc = Loc::None;
        sim::Tick arrival = 0;       ///< in-flight swap-in completes
        std::uint64_t lastUse = 0;   ///< last op position that used it
    };

    /** Transfer ticks for @p bytes (setup + bandwidth). */
    sim::Tick xferTicks(std::uint64_t bytes) const;

    /** Evict tensors until @p need bytes fit. @return success. */
    bool makeRoom(std::uint64_t need, std::size_t pos, bool demand);

    /** Move @p t off the device (swap-out or drop). */
    void evict(torch::TensorId t, bool demand);

    /** Execute one launch op. @return false on OOM. */
    bool execOp(std::size_t pos);

    /** Issue scheduled swap-ins for the ops after @p pos. */
    void prefetch(std::size_t pos);

    const torch::Tape &tape_;
    SwapPolicy &policy_;
    SwapConfig cfg_;
    UseOracle oracle_;

    std::vector<TState> ts_;
    std::uint64_t devUsed_ = 0;
    std::uint64_t hostUsed_ = 0;
    std::uint64_t devUsable_ = 0;
    std::uint64_t hostUsable_ = 0;

    sim::Tick now_ = 0;
    sim::Tick linkFree_ = 0;
    sim::Tick linkBusy_ = 0;
    sim::Tick computeAcc_ = 0;
    std::uint64_t bytesIn_ = 0;
    std::uint64_t bytesOut_ = 0;
    std::uint64_t demandStalls_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t opCounter_ = 0; ///< global op position (for LRU)

    std::string failReason_;
};

/** Convenience: construct, run, return. */
SwapResult runSwapBaseline(const torch::Tape &tape, SwapPolicy &policy,
                           const SwapConfig &cfg);

} // namespace deepum::baselines
