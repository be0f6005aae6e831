/**
 * @file
 * Tensor-use oracle over one training iteration.
 *
 * The tensor-swapping baselines all reason about *when a tensor is
 * used next*: AutoTM's planner, Capuchin's measured access
 * intervals, Sentinel's profile, and the Belady-style eviction the
 * good schedulers approximate. Training iterations repeat, so one
 * flattened iteration answers every such query (with wrap-around for
 * persistent tensors reused next iteration).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "torch/tape.hh"

namespace deepum::baselines {

/** Distance value meaning "never used again". */
constexpr std::uint64_t kNeverUsed = ~std::uint64_t(0);

/** Per-iteration tensor-use index. */
class UseOracle
{
  public:
    explicit UseOracle(const torch::Tape &tape);

    /** Launch-op count of one iteration. */
    std::size_t opCount() const { return opTensors_.size(); }

    /** Tensors used by flattened op @p pos (deduped). */
    const std::vector<torch::TensorId> &
    tensorsOf(std::size_t pos) const
    {
        return opTensors_[pos];
    }

    /**
     * Ops until tensor @p t is used at or after position @p pos
     * (0 = used by the op at @p pos). Wraps to the next iteration;
     * kNeverUsed if the tensor never appears.
     */
    std::uint64_t nextUseDistance(std::size_t pos,
                                  torch::TensorId t) const;

    /** Number of ops touching @p t per iteration. */
    std::uint32_t useCount(torch::TensorId t) const;

    /** First op position that uses @p t (its producer for
     * activations), or kNeverUsed. */
    std::uint64_t firstUse(torch::TensorId t) const;

    /** Compute ticks of the op at position @p pos. */
    sim::Tick computeOf(std::size_t pos) const { return computeNs_[pos]; }

  private:
    std::vector<std::vector<torch::TensorId>> opTensors_;
    std::vector<sim::Tick> computeNs_;
    /** Sorted use positions per tensor. */
    std::vector<std::vector<std::uint32_t>> usePos_;
};

} // namespace deepum::baselines
