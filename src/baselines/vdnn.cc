#include "baselines/vdnn.hh"

namespace deepum::baselines {

bool
VdnnPolicy::supports(const torch::Tape &tape) const
{
    // vDNN's graph transformation understands convolutional networks
    // only.
    const std::string &m = tape.modelName;
    return m.find("resnet") != std::string::npos ||
           m.find("dcgan") != std::string::npos ||
           m.find("mobilenet") != std::string::npos;
}

void
VdnnPolicy::plan(const PlanContext &ctx)
{
    offloadable_.assign(ctx.tape.tensors.size(), false);
    for (std::size_t i = 0; i < ctx.tape.tensors.size(); ++i) {
        offloadable_[i] = ctx.tape.tensors[i].kind ==
                          torch::TensorKind::Activation;
    }
}

bool
VdnnPolicy::offloadable(torch::TensorId t) const
{
    return offloadable_[t];
}

sim::Tick
VdnnPolicy::perIterOverhead(const torch::Tape &tape) const
{
    // cudaStreamSynchronize at every offloaded layer boundary.
    return static_cast<sim::Tick>(tape.launchesPerIteration()) *
           30 * sim::kUsec;
}

} // namespace deepum::baselines
