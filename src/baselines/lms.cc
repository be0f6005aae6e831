#include "baselines/lms.hh"

namespace deepum::baselines {

namespace {

bool
isPersistentKind(torch::TensorKind k)
{
    return k == torch::TensorKind::Weight ||
           k == torch::TensorKind::Gradient ||
           k == torch::TensorKind::OptState;
}

} // namespace

void
LmsPolicy::plan(const PlanContext &ctx)
{
    persistent_.assign(ctx.tape.tensors.size(), false);
    for (std::size_t i = 0; i < ctx.tape.tensors.size(); ++i)
        persistent_[i] = isPersistentKind(ctx.tape.tensors[i].kind);
}

bool
LmsPolicy::offloadable(torch::TensorId t) const
{
    return !persistent_[t];
}

std::size_t
LmsPolicy::pickVictim(const std::vector<VictimInfo> &candidates) const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].lastUsePos < candidates[best].lastUsePos)
            best = i;
    }
    return best;
}

sim::Tick
LmsModPolicy::perIterOverhead(const torch::Tape &tape) const
{
    // Rebuilding the allocator pools after emptyCache(): a fixed
    // cudaFree/cudaMalloc churn plus time proportional to the number
    // of kernels re-allocating.
    return 2 * sim::kMsec +
           static_cast<sim::Tick>(tape.launchesPerIteration()) *
               20 * sim::kUsec;
}

} // namespace deepum::baselines
