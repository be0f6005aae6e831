/**
 * @file
 * Sentinel policy (Ren et al., HPCA'21).
 *
 * Sentinel profiles one training iteration through the OS page-fault
 * mechanism, separates hot from cold data, keeps hot data resident,
 * and schedules cold-tensor migration with lookahead. It is the
 * strongest published comparator (the paper's results agree). Our
 * profile is the oracle's exact use counts — equivalent to
 * Sentinel's one-iteration page-level profile, since iterations
 * repeat.
 */

#pragma once

#include <vector>

#include "baselines/policy.hh"

namespace deepum::baselines {

/** Sentinel: profiled hot/cold placement with lookahead. */
class SentinelPolicy : public SwapPolicy
{
  public:
    const char *name() const override { return "Sentinel"; }

    void plan(const PlanContext &ctx) override;

    bool offloadable(torch::TensorId t) const override;

    std::uint32_t prefetchDistance() const override { return 8; }
    double gpuUsableFraction() const override { return 0.90; }
    double hostUsableFraction() const override { return 0.83; }

    /** Hot tensors pinned on device (tests). */
    std::size_t hotCount() const;

  private:
    std::vector<bool> hot_;
};

} // namespace deepum::baselines
