#include "baselines/sentinel.hh"

#include <algorithm>
#include <numeric>

namespace deepum::baselines {

void
SentinelPolicy::plan(const PlanContext &ctx)
{
    const auto &tensors = ctx.tape.tensors;
    hot_.assign(tensors.size(), false);

    // Profile: accesses per byte (Sentinel's page-level heat,
    // aggregated to tensors). Pin the hottest tensors into 40% of
    // the arena; everything colder streams with lookahead.
    std::vector<std::size_t> order(tensors.size());
    std::iota(order.begin(), order.end(), 0);
    auto heat = [&](std::size_t t) {
        return static_cast<double>(ctx.oracle.useCount(
                   static_cast<torch::TensorId>(t))) /
               static_cast<double>(tensors[t].bytes);
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return heat(a) > heat(b);
              });

    std::uint64_t budget = static_cast<std::uint64_t>(
        0.4 * gpuUsableFraction() *
        static_cast<double>(ctx.capacityBytes));
    std::uint64_t used = 0;
    for (std::size_t t : order) {
        if (ctx.oracle.useCount(static_cast<torch::TensorId>(t)) < 2)
            continue; // cold: single-use data streams
        if (used + tensors[t].bytes > budget)
            continue;
        used += tensors[t].bytes;
        hot_[t] = true;
    }
}

bool
SentinelPolicy::offloadable(torch::TensorId t) const
{
    return !hot_[t];
}

std::size_t
SentinelPolicy::hotCount() const
{
    return static_cast<std::size_t>(
        std::count(hot_.begin(), hot_.end(), true));
}

} // namespace deepum::baselines
