/**
 * @file
 * AutoTM policy (Hildebrand et al., ASPLOS'20).
 *
 * AutoTM formulates tensor placement/movement as an integer linear
 * program over the static dataflow graph. We implement the standard
 * near-optimal approximation of that schedule: a greedy knapsack
 * pins the highest reuse-per-byte tensors on the device (the ILP's
 * "keep resident" assignments) and the remaining movement follows a
 * Belady order with deep prefetch — what the ILP converges to when
 * transfer/compute overlap dominates the objective.
 */

#pragma once

#include <vector>

#include "baselines/policy.hh"

namespace deepum::baselines {

/** AutoTM: ILP-style planned tensor movement. */
class AutoTmPolicy : public SwapPolicy
{
  public:
    const char *name() const override { return "AutoTM"; }

    void plan(const PlanContext &ctx) override;

    bool offloadable(torch::TensorId t) const override;

    std::uint32_t prefetchDistance() const override { return 8; }
    double gpuUsableFraction() const override { return 0.88; }
    double hostUsableFraction() const override { return 0.82; }

  private:
    std::vector<bool> pinned_;
};

} // namespace deepum::baselines
