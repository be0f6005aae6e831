/**
 * @file
 * Baseline dispatch: build a policy by name, run it, search its
 * maximum batch size.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/swap_executor.hh"

namespace deepum::baselines {

/** The six published comparators of the paper's evaluation. */
enum class BaselineKind {
    Lms,
    LmsMod,
    Vdnn,
    AutoTm,
    SwapAdvisor,
    Capuchin,
    Sentinel,
};

/** All kinds, in the paper's presentation order. */
std::vector<BaselineKind> allBaselines();

/** Printable name matching the paper's figures. */
const char *baselineName(BaselineKind kind);

/** Construct a fresh policy object for @p kind. */
std::unique_ptr<SwapPolicy> makePolicy(BaselineKind kind);

/** Build + run @p kind on @p tape. */
SwapResult runBaseline(BaselineKind kind, const torch::Tape &tape,
                       const SwapConfig &cfg);

/**
 * Largest batch in [lo, hi] that @p kind completes
 * (harness::largestFitting() over 3-iteration runs); 0 when even
 * @p lo fails (or the model is unsupported).
 */
std::uint64_t maxBatchBaseline(BaselineKind kind,
                               const std::string &model,
                               const SwapConfig &cfg, std::uint64_t lo,
                               std::uint64_t hi);

} // namespace deepum::baselines
