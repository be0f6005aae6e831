#include "gpu/gpu_engine.hh"

#include <algorithm>
#include <span>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace deepum::gpu {

GpuEngine::GpuEngine(sim::EventQueue &eq, const TimingConfig &cfg,
                     FaultBuffer &fb, sim::StatSet &stats)
    : SimObject(eq, "gpu.engine"),
      cfg_(cfg),
      fb_(fb),
      kernelsLaunched_(stats, "gpu.kernelsLaunched",
                       "kernels executed by the engine"),
      batchesIssued_(stats, "gpu.batchesIssued",
                     "SM access batches issued"),
      computeTicks_(stats, "gpu.computeTicks",
                    "ticks spent in pure compute"),
      stallTicks_(stats, "gpu.stallTicks",
                  "ticks stalled on fault handling"),
      faultsRaised_(stats, "gpu.faultsRaised",
                    "fault-buffer entries pushed"),
      replays_(stats, "gpu.replays", "replay signals received")
{
}

void
GpuEngine::launch(const KernelInfo *kernel, sim::EventFn on_done)
{
    DEEPUM_ASSERT(!busy(), "kernel launch while the stream is busy");
    DEEPUM_ASSERT(backend_ != nullptr, "no backend attached");

    kernel_ = kernel;
    onDone_ = on_done;
    nextAccess_ = 0;
    stalled_ = false;
    kernelStart_ = curTick();
    ++kernelsLaunched_;

    // One division per launch: later batches carry the remainder.
    const std::size_t n = kernel_->accesses.size();
    computeLeft_ = kernel_->computeNs;
    carry_ = 0;
    if (cfg_.smBatch < n) {
        __uint128_t per_batch =
            static_cast<__uint128_t>(kernel_->computeNs) * cfg_.smBatch;
        batchQuot_ = static_cast<sim::Tick>(per_batch / n);
        batchRem_ = static_cast<std::uint64_t>(
            per_batch - static_cast<__uint128_t>(batchQuot_) * n);
    }

    backend_->onKernelBegin(*kernel_);
    if (kernel_->accesses.empty()) {
        // No memory trace: burn the compute time and retire.
        computeTicks_ += kernel_->computeNs;
        scheduleIn(cfg_.kernelLaunchOverhead + kernel_->computeNs,
                   [this] { advance(); });
    } else {
        scheduleIn(cfg_.kernelLaunchOverhead, [this] { advance(); });
    }
}

void
GpuEngine::advance()
{
    const auto &acc = kernel_->accesses;
    const std::size_t n = acc.size();

    if (nextAccess_ >= n) {
        // Kernel retires. Kernels with no memory trace still burn
        // their compute time before reaching this point (handled at
        // issue below), except the degenerate zero-access case.
        const KernelInfo *k = kernel_;
        sim::EventFn done = onDone_;
        kernel_ = nullptr;
        if (auto *tr = eventq().tracer())
            tr->duration(
                sim::Track::Gpu,
                k->name + "#" + std::to_string(k->execId),
                kernelStart_, curTick(),
                {sim::Tracer::arg("op", k->name),
                 sim::Tracer::arg("execId", std::uint64_t(k->execId)),
                 sim::Tracer::arg("accesses",
                                  std::uint64_t(k->accesses.size()))});
        backend_->onKernelEnd(*k);
        done();
        return;
    }

    std::size_t end = std::min(n, nextAccess_ + cfg_.smBatch);
    std::size_t faults = backend_->accessBatch(
        std::span(acc).subspan(nextAccess_, end - nextAccess_),
        curTick(), fb_);

    if (faults != 0) {
        faultsRaised_ += faults;
        stalled_ = true;
        stallStart_ = curTick();
        if (auto *tr = eventq().tracer())
            tr->instant(sim::Track::Gpu, "stallOnFault", curTick(),
                        {sim::Tracer::arg("op", kernel_->name),
                         sim::Tracer::arg(
                             "progress",
                             std::uint64_t(nextAccess_))});
        backend_->faultInterrupt();
        return; // replay() resumes us
    }

    // The batch ran: charge compute proportional to trace progress so
    // the total over the kernel is exactly computeNs.
    ++batchesIssued_;
    sim::Tick dt = computeLeft_;
    if (end != n) {
        dt = batchQuot_;
        if (carry_ >= n - batchRem_) {
            carry_ -= n - batchRem_;
            ++dt;
        } else {
            carry_ += batchRem_;
        }
    }
    computeLeft_ -= dt;
    computeTicks_ += dt;

    nextAccess_ = end;
    scheduleIn(dt, [this] { advance(); });
}

void
GpuEngine::replay()
{
    DEEPUM_ASSERT(stalled_, "replay without an outstanding stall");
    ++replays_;
    stalled_ = false;
    stallTicks_ += curTick() - stallStart_;
    if (auto *tr = eventq().tracer())
        tr->duration(sim::Track::Gpu, "stall", stallStart_, curTick(),
                     {sim::Tracer::arg("op", kernel_->name)});
    advance();
}

} // namespace deepum::gpu
