#include "baselines/oracle.hh"

#include <algorithm>

namespace deepum::baselines {

UseOracle::UseOracle(const torch::Tape &tape)
    : usePos_(tape.tensors.size())
{
    for (const auto &step : tape.iteration) {
        if (step.kind != torch::StepKind::Launch)
            continue;
        const torch::TapeOp &op = tape.ops[step.opIndex];
        std::vector<torch::TensorId> used;
        auto add = [&](torch::TensorId t) {
            if (t == torch::kNoTensor)
                return;
            if (std::find(used.begin(), used.end(), t) == used.end())
                used.push_back(t);
        };
        for (const auto &u : op.uses)
            add(u.tensor);
        add(op.gatherTensor);

        std::uint32_t pos =
            static_cast<std::uint32_t>(opTensors_.size());
        for (torch::TensorId t : used)
            usePos_[t].push_back(pos);
        opTensors_.push_back(std::move(used));
        computeNs_.push_back(op.computeNs);
    }
}

std::uint64_t
UseOracle::nextUseDistance(std::size_t pos, torch::TensorId t) const
{
    const auto &uses = usePos_[t];
    if (uses.empty())
        return kNeverUsed;
    auto it = std::lower_bound(uses.begin(), uses.end(),
                               static_cast<std::uint32_t>(pos));
    if (it != uses.end())
        return *it - pos;
    // Wraps to the next iteration.
    return opTensors_.size() - pos + uses.front();
}

std::uint32_t
UseOracle::useCount(torch::TensorId t) const
{
    return static_cast<std::uint32_t>(usePos_[t].size());
}

std::uint64_t
UseOracle::firstUse(torch::TensorId t) const
{
    const auto &uses = usePos_[t];
    return uses.empty() ? kNeverUsed : uses.front();
}

} // namespace deepum::baselines
