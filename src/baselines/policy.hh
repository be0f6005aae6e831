/**
 * @file
 * Policy interface for the tensor-swapping baselines.
 *
 * Each published system (LMS, vDNN, AutoTM, SwapAdvisor, Capuchin,
 * Sentinel) becomes a SwapPolicy: the shared SwapExecutor provides
 * the timing/residency machinery, the policy provides what the paper
 * says each system decides — which tensors may be offloaded, how far
 * ahead to prefetch, which victim to evict, whether to recompute
 * instead of swapping, and how much device/host memory is usable
 * after that system's pinned buffers and allocator fragmentation.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/oracle.hh"
#include "gpu/timing.hh"
#include "sim/types.hh"
#include "torch/tape.hh"

namespace deepum::baselines {

/** Inputs available while planning (before execution). */
struct PlanContext {
    const torch::Tape &tape;
    const UseOracle &oracle;
    const gpu::TimingConfig &timing;
    std::uint64_t capacityBytes; ///< device memory
    std::uint64_t hostBytes;     ///< backing store
};

/** One eviction candidate presented to pickVictim(). */
struct VictimInfo {
    torch::TensorId tensor;
    std::uint64_t bytes;
    std::uint64_t nextUseDistance; ///< ops until next use
    std::uint64_t lastUsePos;      ///< most recent use position
};

/** Strategy object: one per published system. */
class SwapPolicy
{
  public:
    virtual ~SwapPolicy() = default;

    /** System name (as printed in the paper's figures). */
    virtual const char *name() const = 0;

    /** Whether the system can run this model at all (vDNN: CNNs only). */
    virtual bool supports(const torch::Tape &tape) const
    {
        (void)tape;
        return true;
    }

    /** One-time planning pass (ILP-approx, GA, profiling, ...). */
    virtual void plan(const PlanContext &ctx) { (void)ctx; }

    /**
     * Tensor may leave device memory; false pins it there, so it is
     * never an eviction victim.
     */
    virtual bool offloadable(torch::TensorId t) const
    {
        (void)t;
        return true;
    }

    /** How many ops ahead swap-ins are scheduled. */
    virtual std::uint32_t prefetchDistance() const { return 4; }

    /**
     * Fraction of device memory usable for tensors after the
     * system's staging buffers and allocator fragmentation.
     */
    virtual double gpuUsableFraction() const { return 0.92; }

    /** Same for the host backing store. */
    virtual double hostUsableFraction() const { return 0.90; }

    /** Fixed extra ticks per iteration (e.g. LMS-mod cache flush). */
    virtual sim::Tick perIterOverhead(const torch::Tape &tape) const
    {
        (void)tape;
        return 0;
    }

    /**
     * Choose the eviction victim. Default: Belady (farthest next
     * use), which the offline planners approximate.
     * @return index into @p candidates.
     */
    virtual std::size_t
    pickVictim(const std::vector<VictimInfo> &candidates) const;

    /** Evicting @p t drops it (recompute on reload, no write-back). */
    virtual bool dropOnEvict(torch::TensorId t) const
    {
        (void)t;
        return false;
    }

    /** GPU compute to recompute @p t when reloaded after a drop. */
    virtual sim::Tick reloadComputeCost(torch::TensorId t) const
    {
        (void)t;
        return 0;
    }
};

} // namespace deepum::baselines
