#include "baselines/autotm.hh"

#include <algorithm>
#include <numeric>

namespace deepum::baselines {

void
AutoTmPolicy::plan(const PlanContext &ctx)
{
    const auto &tensors = ctx.tape.tensors;
    pinned_.assign(tensors.size(), false);

    // Greedy knapsack on reuse-per-byte: pin the most frequently
    // reused tensors into half the arena, leaving the other half as
    // the ILP's streaming/double-buffer region.
    std::vector<std::size_t> order(tensors.size());
    std::iota(order.begin(), order.end(), 0);
    auto score = [&](std::size_t t) {
        double uses = static_cast<double>(ctx.oracle.useCount(
            static_cast<torch::TensorId>(t)));
        return uses / static_cast<double>(tensors[t].bytes);
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return score(a) > score(b);
              });

    std::uint64_t budget = static_cast<std::uint64_t>(
        0.5 * gpuUsableFraction() *
        static_cast<double>(ctx.capacityBytes));
    std::uint64_t used = 0;
    for (std::size_t t : order) {
        if (ctx.oracle.useCount(static_cast<torch::TensorId>(t)) == 0)
            continue;
        if (used + tensors[t].bytes > budget)
            continue;
        used += tensors[t].bytes;
        pinned_[t] = true;
    }
}

bool
AutoTmPolicy::offloadable(torch::TensorId t) const
{
    return !pinned_[t];
}

} // namespace deepum::baselines
