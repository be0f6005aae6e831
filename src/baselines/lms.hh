/**
 * @file
 * IBM Large Model Support (TFLMS / PyTorch-LMS) policy.
 *
 * LMS hooks the autograd graph and swaps *activation* tensors
 * reactively: parameters, gradients, and optimizer state stay on the
 * GPU where the optimizer runs. Eviction is LRU; lookahead is one
 * op. The PyTorch caching allocator underneath fragments badly under
 * swap churn, which is what limits LMS's maximum batch size — the
 * LMS-mod variant of the paper periodically frees the cached pool,
 * trading steady-state speed for a larger usable arena.
 */

#pragma once

#include <vector>

#include "baselines/policy.hh"

namespace deepum::baselines {

/** Stock LMS. */
class LmsPolicy : public SwapPolicy
{
  public:
    const char *name() const override { return "LMS"; }

    void plan(const PlanContext &ctx) override;

    bool offloadable(torch::TensorId t) const override;

    std::uint32_t prefetchDistance() const override { return 1; }
    double gpuUsableFraction() const override { return 0.58; }

    /** LRU victim, not Belady: LMS has no global schedule. */
    std::size_t
    pickVictim(const std::vector<VictimInfo> &candidates) const override;

  protected:
    std::vector<bool> persistent_;
};

/**
 * LMS-mod: LMS plus a periodic emptyCache() pass (paper Section 6.2)
 * — less fragmentation, more usable arena, but extra per-iteration
 * time re-building the allocator pools.
 */
class LmsModPolicy : public LmsPolicy
{
  public:
    const char *name() const override { return "LMS-mod"; }

    double gpuUsableFraction() const override { return 0.80; }

    sim::Tick perIterOverhead(const torch::Tape &tape) const override;
};

} // namespace deepum::baselines
