#include "baselines/swap_executor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace deepum::baselines {

SwapExecutor::SwapExecutor(const torch::Tape &tape, SwapPolicy &policy,
                           const SwapConfig &cfg)
    : tape_(tape),
      policy_(policy),
      cfg_(cfg),
      oracle_(tape),
      ts_(tape.tensors.size())
{
    devUsable_ = static_cast<std::uint64_t>(
        policy_.gpuUsableFraction() *
        static_cast<double>(cfg_.capacityBytes));
    hostUsable_ = static_cast<std::uint64_t>(
        policy_.hostUsableFraction() *
        static_cast<double>(cfg_.hostBytes));
}

sim::Tick
SwapExecutor::xferTicks(std::uint64_t bytes) const
{
    return cfg_.timing.pcieLatency + cfg_.timing.copyTicks(bytes);
}

void
SwapExecutor::evict(torch::TensorId t, bool demand)
{
    TState &s = ts_[t];
    DEEPUM_ASSERT(s.loc == Loc::Device, "evicting non-resident tensor");
    std::uint64_t bytes = tape_.tensors[t].bytes;
    devUsed_ -= bytes;
    ++evictions_;
    if (policy_.dropOnEvict(t)) {
        // Recomputation-based systems (Capuchin) drop the tensor:
        // no write-back traffic, compute cost paid on reload.
        s.loc = Loc::Dropped;
        return;
    }
    sim::Tick dur = xferTicks(bytes);
    sim::Tick start = std::max(linkFree_, now_);
    linkFree_ = start + dur;
    linkBusy_ += dur;
    bytesOut_ += bytes;
    hostUsed_ += bytes;
    s.loc = Loc::Host;
    if (demand) {
        // Eviction on the demand path delays the waiting kernel.
        now_ = std::max(now_, linkFree_);
    }
}

bool
SwapExecutor::makeRoom(std::uint64_t need, std::size_t pos, bool demand)
{
    if (devUsed_ + need <= devUsable_)
        return true;

    const auto &required = oracle_.tensorsOf(pos);
    while (devUsed_ + need > devUsable_) {
        std::vector<VictimInfo> candidates;
        for (torch::TensorId t = 0;
             t < static_cast<torch::TensorId>(ts_.size()); ++t) {
            const TState &s = ts_[t];
            if (!s.exists || s.loc != Loc::Device)
                continue;
            if (!policy_.offloadable(t))
                continue;
            if (std::find(required.begin(), required.end(), t) !=
                required.end())
                continue;
            if (s.arrival > now_)
                continue; // still arriving; do not thrash it
            candidates.push_back(VictimInfo{
                t, tape_.tensors[t].bytes,
                oracle_.nextUseDistance(pos, t), s.lastUse});
        }
        if (candidates.empty()) {
            failReason_ = "working set exceeds usable device memory";
            return false;
        }
        std::size_t pick = policy_.pickVictim(candidates);
        evict(candidates[pick].tensor, demand);
    }
    return true;
}

void
SwapExecutor::prefetch(std::size_t pos)
{
    std::uint32_t dist = policy_.prefetchDistance();
    std::size_t n = oracle_.opCount();
    for (std::uint32_t d = 1; d <= dist; ++d) {
        std::size_t p = (pos + d) % n;
        for (torch::TensorId t : oracle_.tensorsOf(p)) {
            TState &s = ts_[t];
            if (!s.exists || s.loc == Loc::Device ||
                s.loc == Loc::None)
                continue;
#ifdef DEEPUM_VALIDATE
            // Only makeRoom moves a tensor off the device, and only
            // an offloadable one; no policy's answer changes after
            // plan().
            DEEPUM_ASSERT(policy_.offloadable(t),
                          "pinned tensor %d is off the device", t);
#endif
            std::uint64_t bytes = tape_.tensors[t].bytes;
            // Only prefetch into free space; never evict for a
            // prefetch (the offline planners schedule evictions
            // ahead of time, which makeRoom's Belady order models).
            if (devUsed_ + bytes > devUsable_)
                continue;
            devUsed_ += bytes;
            sim::Tick start = std::max(linkFree_, now_);
            sim::Tick dur;
            if (s.loc == Loc::Dropped) {
                // Recompute on the GPU instead of copying.
                dur = policy_.reloadComputeCost(t);
                computeAcc_ += dur;
                s.arrival = start + dur;
            } else {
                dur = xferTicks(bytes);
                bytesIn_ += bytes;
                hostUsed_ -= bytes;
                s.arrival = start + dur;
            }
            linkFree_ = start + dur;
            linkBusy_ += dur;
            s.loc = Loc::Device;
        }
    }
}

bool
SwapExecutor::execOp(std::size_t pos)
{
    const auto &required = oracle_.tensorsOf(pos);

    // Working-set feasibility: everything the kernel touches must be
    // resident simultaneously (non-UM semantics).
    std::uint64_t req_bytes = 0;
    for (torch::TensorId t : required)
        req_bytes += tape_.tensors[t].bytes;
    if (req_bytes > devUsable_) {
        failReason_ = "kernel working set exceeds device memory";
        return false;
    }

    // Demand phase: materialize / swap in what the kernel needs.
    for (torch::TensorId t : required) {
        TState &s = ts_[t];
        DEEPUM_ASSERT(s.exists, "op uses freed tensor %s",
                      tape_.tensors[t].name.c_str());
        std::uint64_t bytes = tape_.tensors[t].bytes;
        switch (s.loc) {
          case Loc::Device:
            if (s.arrival > now_) {
                // Prefetch still in flight: partial overlap.
                now_ = s.arrival;
            }
            break;
          case Loc::None:
            // First touch: materializes on device (zero cost copy).
            if (!makeRoom(bytes, pos, /*demand=*/true))
                return false;
            devUsed_ += bytes;
            s.loc = Loc::Device;
            s.arrival = now_;
            break;
          case Loc::Host: {
            ++demandStalls_;
            if (!makeRoom(bytes, pos, /*demand=*/true))
                return false;
            devUsed_ += bytes;
            hostUsed_ -= bytes;
            sim::Tick start = std::max(linkFree_, now_);
            sim::Tick dur = xferTicks(bytes);
            linkFree_ = start + dur;
            linkBusy_ += dur;
            bytesIn_ += bytes;
            s.loc = Loc::Device;
            s.arrival = linkFree_;
            now_ = linkFree_; // GPU stalls for a demand swap-in
            break;
          }
          case Loc::Dropped: {
            ++demandStalls_;
            if (!makeRoom(bytes, pos, /*demand=*/true))
                return false;
            devUsed_ += bytes;
            sim::Tick cost = policy_.reloadComputeCost(t);
            computeAcc_ += cost;
            now_ += cost; // recompute on the GPU
            s.loc = Loc::Device;
            s.arrival = now_;
            break;
          }
        }
        s.lastUse = opCounter_;
    }

    if (hostUsed_ > hostUsable_) {
        failReason_ = "host backing store exhausted";
        return false;
    }

    // Issue lookahead swap-ins, then run the kernel.
    prefetch(pos);
    sim::Tick compute = oracle_.computeOf(pos);
    now_ += cfg_.timing.kernelLaunchOverhead + compute;
    computeAcc_ += compute;
    ++opCounter_;
    return true;
}

SwapResult
SwapExecutor::run()
{
    if (cfg_.warmup >= cfg_.iterations)
        sim::fatal("iterations (%u) must exceed warmup (%u)",
                   cfg_.iterations, cfg_.warmup);

    SwapResult r;
    if (!policy_.supports(tape_)) {
        r.reason = "model not supported";
        return r;
    }

    PlanContext ctx{tape_, oracle_, cfg_.timing, cfg_.capacityBytes,
                    cfg_.hostBytes};
    policy_.plan(ctx);

    // Prologue: persistent tensors materialize on first use; here we
    // just mark them existing.
    for (const auto &step : tape_.prologue) {
        if (step.kind == torch::StepKind::Alloc)
            ts_[step.tensor].exists = true;
    }

    // The counters at the end of the last warm-up iteration (all 0
    // without warm-up); the measured window is everything after.
    struct Totals {
        sim::Tick now = 0, compute = 0, link = 0;
        std::uint64_t in = 0, out = 0, stalls = 0, evictions = 0;
    };
    auto totals = [this] {
        return Totals{now_, computeAcc_, linkBusy_, bytesIn_,
                      bytesOut_, demandStalls_, evictions_};
    };
    Totals base;

    for (std::uint32_t it = 0; it < cfg_.iterations; ++it) {
        std::size_t pos = 0;
        for (const auto &step : tape_.iteration) {
            switch (step.kind) {
              case torch::StepKind::Alloc:
                ts_[step.tensor].exists = true;
                ts_[step.tensor].loc = Loc::None;
                break;
              case torch::StepKind::Free: {
                TState &s = ts_[step.tensor];
                if (s.loc == Loc::Device)
                    devUsed_ -= tape_.tensors[step.tensor].bytes;
                else if (s.loc == Loc::Host)
                    hostUsed_ -= tape_.tensors[step.tensor].bytes;
                s.exists = false;
                s.loc = Loc::None;
                break;
              }
              case torch::StepKind::Launch:
                if (!execOp(pos)) {
                    r.reason = failReason_;
                    return r;
                }
                ++pos;
                break;
            }
        }
        now_ += policy_.perIterOverhead(tape_);
        if (it + 1 == cfg_.warmup)
            base = totals();
    }

    const Totals end = totals();
    std::uint32_t iters = cfg_.iterations - cfg_.warmup;
    sim::Tick window = end.now - base.now;
    sim::Tick cw = end.compute - base.compute;
    std::uint64_t in_w = end.in - base.in;
    std::uint64_t out_w = end.out - base.out;

    r.ok = true;
    r.ticksPerIter = window / iters;
    r.secPer100Iters = sim::ticksToSeconds(window) * 100.0 / iters;
    r.computeTicksPerIter = cw / iters;
    r.bytesInPerIter = in_w / iters;
    r.bytesOutPerIter = out_w / iters;
    r.demandStallsPerIter = (end.stalls - base.stalls) / iters;
    r.evictionsPerIter = (end.evictions - base.evictions) / iters;
    r.energyJPerIter = cfg_.energy.joules(window, cw,
                                          end.link - base.link,
                                          in_w + out_w) /
                       iters;
    return r;
}

SwapResult
runSwapBaseline(const torch::Tape &tape, SwapPolicy &policy,
                const SwapConfig &cfg)
{
    SwapExecutor ex(tape, policy, cfg);
    return ex.run();
}

} // namespace deepum::baselines
