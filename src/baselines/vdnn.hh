/**
 * @file
 * vDNN policy (Rhu et al., MICRO'16).
 *
 * The first DNN swapping system: offloads convolutional-layer
 * activations after the forward pass and prefetches them one layer
 * ahead during backward. Strictly layer-synchronous, CNN-only —
 * transformers and recommendation models are unsupported ("not
 * work" in paper Table 7).
 */

#pragma once

#include <vector>

#include "baselines/policy.hh"

namespace deepum::baselines {

/** vDNN: conv-activation offload with one-layer prefetch. */
class VdnnPolicy : public SwapPolicy
{
  public:
    const char *name() const override { return "vDNN"; }

    bool supports(const torch::Tape &tape) const override;

    void plan(const PlanContext &ctx) override;

    bool offloadable(torch::TensorId t) const override;

    std::uint32_t prefetchDistance() const override { return 1; }
    double gpuUsableFraction() const override { return 0.85; }
    double hostUsableFraction() const override { return 0.70; }

    /** Layer-synchronous offload adds per-op synchronization. */
    sim::Tick perIterOverhead(const torch::Tape &tape) const override;

  private:
    std::vector<bool> offloadable_;
};

} // namespace deepum::baselines
