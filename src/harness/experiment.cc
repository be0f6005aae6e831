#include "harness/experiment.hh"

#include <algorithm>
#include <fstream>
#include <memory>

#include "core/deepum.hh"
#include "core/runtime.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "harness/session.hh"
#include "mem/frame_pool.hh"
#include "mem/va_space.hh"
#include "models/registry.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "sim/trace.hh"
#include "sim/validate.hh"
#include "torch/allocator.hh"
#include "torch/um_source.hh"
#include "uvm/driver.hh"

namespace deepum::harness {

namespace {

/** Write @p path via @p emit, warning (not failing) on I/O errors. */
template <typename EmitFn>
void
writeFileOrWarn(const std::string &path, const char *what, EmitFn emit)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        sim::warn("cannot open %s file %s for writing", what,
                  path.c_str());
        return;
    }
    emit(os);
    if (!os)
        sim::warn("error writing %s file %s", what, path.c_str());
}

} // namespace

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Ideal:
        return "Ideal";
      case SystemKind::Um:
        return "UM";
      case SystemKind::OcDnn:
        return "OC-DNN";
      case SystemKind::DeepUm:
        return "DeepUM";
    }
    return "?";
}

std::uint64_t
minGpuMemBytes(const gpu::TimingConfig &timing)
{
    return std::uint64_t(timing.smBatch) * mem::kBlockBytes;
}

RunResult
runExperiment(const torch::Tape &tape, SystemKind kind,
              const ExperimentConfig &cfg)
{
    if (cfg.gpuMemBytes < minGpuMemBytes(cfg.timing))
        sim::fatal("GPU memory of %llu bytes is below one SM batch "
                   "(%u blocks of %llu bytes)",
                   static_cast<unsigned long long>(cfg.gpuMemBytes),
                   cfg.timing.smBatch,
                   static_cast<unsigned long long>(mem::kBlockBytes));
    if (cfg.warmup >= cfg.iterations)
        sim::fatal("iterations (%u) must exceed warmup (%u)",
                   cfg.iterations, cfg.warmup);

    sim::EventQueue eq;
    sim::StatSet stats;

    std::uint64_t gpu_bytes = cfg.gpuMemBytes;
    std::uint64_t host_bytes = cfg.hostMemBytes;
    if (kind == SystemKind::Ideal) {
        // No oversubscription: device memory covers the footprint
        // (the paper measures the in-memory case and scales it).
        gpu_bytes = tape.footprintBytes() * 2 + 64 * sim::kMiB;
        host_bytes = std::max(host_bytes, gpu_bytes * 2);
    }

    gpu::FaultBuffer fb;
    gpu::PcieLink link(cfg.timing);
    mem::FramePool frames(gpu_bytes / mem::kPageSize);
    mem::VaSpace va(host_bytes);

    // Tracing is opt-in: with no trace file requested, no Tracer is
    // attached anywhere and every emission site is a null check.
    std::unique_ptr<sim::Tracer> tracer;
    if (!cfg.traceFile.empty()) {
        tracer = std::make_unique<sim::Tracer>();
        eq.setTracer(tracer.get());
        link.setTracer(tracer.get());
    }

    gpu::GpuEngine engine(eq, cfg.timing, fb, stats);
    uvm::Driver driver(eq, cfg.timing, fb, link, frames, stats);
    engine.setBackend(&driver);
    driver.setEngine(&engine);

    std::unique_ptr<core::DeepUm> deepum;
    if (kind == SystemKind::DeepUm)
        deepum = std::make_unique<core::DeepUm>(driver, cfg.deepum,
                                                stats);

    // The provenance ledger is opt-in like the tracer: with it off,
    // no `ledger.*` stat exists and no driver hook fires, so runs
    // stay bit-identical to a build without the feature.
    std::unique_ptr<uvm::ProvenanceLedger> ledger;
    if (cfg.ledger) {
        ledger = std::make_unique<uvm::ProvenanceLedger>(
            stats, cfg.thrashWindowTicks);
        ledger->attachDriver(&driver);
        driver.setLedger(ledger.get());
    }

    // Same for the time-series sampler; its events only read state,
    // so an enabled sampler still leaves the simulation unchanged.
    std::unique_ptr<sim::TimeSeriesSampler> sampler;
    if (!cfg.timeseriesFile.empty()) {
        sampler = std::make_unique<sim::TimeSeriesSampler>(
            eq, cfg.timeseriesInterval);
        sampler->addSeries("frames.usedPages", [&frames] {
            return frames.usedPages();
        });
        sampler->addSeries("faultQueue.depth", [&driver] {
            return static_cast<std::uint64_t>(
                driver.faultQueueDepth());
        });
        sampler->addSeries("prefetchQueue.depth", [&driver] {
            return static_cast<std::uint64_t>(
                driver.prefetchQueueDepth());
        });
        sampler->addSeries(
            "pcie.utilPct",
            [&link, &eq, last_tick = sim::Tick(0),
             last_busy = sim::Tick(0)]() mutable -> std::uint64_t {
                sim::Tick now = eq.now();
                sim::Tick busy = link.busyTicks();
                sim::Tick dt = now - last_tick;
                // busyTicks() accrues at acquire time, ahead of the
                // wall clock, so one window can exceed 100%.
                sim::Tick db = busy - last_busy;
                last_tick = now;
                last_busy = busy;
                if (dt == 0)
                    return 0;
                return std::min<std::uint64_t>(100, db * 100 / dt);
            });
    }

#ifdef DEEPUM_VALIDATE
    // DEEPUM_VALIDATE builds re-audit the whole stack after every
    // fault batch and kernel retirement; registration order fixes the
    // audit order.
    sim::Validator validator;
    validator.add("sim.eventq", eq);
    validator.add("mem.frames", frames);
    validator.add("mem.va", va);
    validator.add("uvm.driver", driver);
    if (ledger != nullptr)
        validator.add("uvm.ledger", *ledger);
    if (sampler != nullptr)
        validator.add("sim.timeseries", *sampler);
    if (deepum != nullptr)
        validator.add("core.deepum", *deepum);
    driver.setValidator(&validator);
#endif

    core::Runtime runtime(va, driver, engine, deepum.get());
    torch::UmSegmentSource source(runtime);
    torch::CachingAllocator alloc(source, stats);
    if (tracer != nullptr)
        alloc.attachTracer(&eq, tracer.get());

    Session session(eq, runtime, alloc, stats, link, tape,
                    cfg.iterations, cfg.seed,
                    /*manual_prefetch=*/kind == SystemKind::OcDnn);
    if (sampler != nullptr)
        sampler->start();
    bool ok = session.run();

    // Close the ledger's books before the final audit so the
    // useful + late + wasted == arrivals reconciliation holds.
    if (ledger != nullptr)
        ledger->finalize();

#ifdef DEEPUM_VALIDATE
    // One final audit of the quiesced stack, then export the counts
    // so an end-to-end run can prove the hooks actually fired.
    validator.runAll("session-end");
    sim::Scalar validatePasses(stats, "validate.passes",
                               "invariant audit sweeps completed");
    sim::Scalar validateChecks(stats, "validate.checks",
                               "invariant conditions evaluated");
    validatePasses += validator.passes();
    validateChecks += validator.checks();
#endif

    if (tracer != nullptr)
        writeFileOrWarn(cfg.traceFile, "trace",
                        [&](std::ostream &os) { tracer->writeJson(os); });
    if (!cfg.statsJsonFile.empty())
        writeFileOrWarn(cfg.statsJsonFile, "stats JSON",
                        [&](std::ostream &os) { stats.dumpJson(os); });
    if (sampler != nullptr) {
        bool json = cfg.timeseriesFile.size() >= 5 &&
                    cfg.timeseriesFile.compare(
                        cfg.timeseriesFile.size() - 5, 5,
                        ".json") == 0;
        writeFileOrWarn(cfg.timeseriesFile, "time series",
                        [&](std::ostream &os) {
                            if (json)
                                sampler->writeJson(os);
                            else
                                sampler->writeCsv(os);
                        });
    }

    RunResult r;
    r.ok = ok;
    if (!ok)
        return r;

    const auto &snaps = session.snapshots();
    DEEPUM_ASSERT(snaps.size() == cfg.iterations,
                  "snapshot count mismatch");

    IterSnapshot base;
    if (cfg.warmup > 0)
        base = snaps[cfg.warmup - 1];
    const IterSnapshot &end = snaps.back();
    std::uint32_t iters = cfg.iterations - cfg.warmup;
    r.measuredIters = iters;

    sim::Tick window = end.endTick - base.endTick;
    r.ticksPerIter = window / iters;
    r.secPer100Iters = sim::ticksToSeconds(window) * 100.0 / iters;
    r.pageFaultsPerIter =
        static_cast<double>(end.pageFaults - base.pageFaults) / iters;
    r.computeTicksPerIter =
        (end.computeTicks - base.computeTicks) / iters;
    r.bytesHtoDPerIter = (end.bytesHtoD - base.bytesHtoD) / iters;
    r.bytesDtoHPerIter = (end.bytesDtoH - base.bytesDtoH) / iters;

    std::uint64_t bytes_window = (end.bytesHtoD - base.bytesHtoD) +
                                 (end.bytesDtoH - base.bytesDtoH);
    double joules = cfg.energy.joules(
        window, end.computeTicks - base.computeTicks,
        end.linkBusyTicks - base.linkBusyTicks, bytes_window);
    r.energyJPerIter = joules / iters;

    if (deepum != nullptr)
        r.tableBytes = deepum->tableBytes();
    if (ledger != nullptr)
        r.ledger = ledger->summary(cfg.ledgerHotBlocks);

    // all()/allDists() are sorted, so hinting at end() makes every
    // map insertion O(1).
    for (const sim::Scalar *s : stats.all())
        r.stats.emplace_hint(r.stats.end(), s->name(), s->value());
    for (const sim::Distribution *d : stats.allDists()) {
        DistSummary ds;
        ds.count = d->count();
        ds.min = d->min();
        ds.max = d->max();
        ds.mean = d->mean();
        ds.stddev = d->stddev();
        ds.p50 = d->percentile(50);
        ds.p99 = d->percentile(99);
        r.dists.emplace_hint(r.dists.end(), d->name(), ds);
    }
    return r;
}

std::uint64_t
largestFitting(std::uint64_t lo, std::uint64_t hi,
               const std::function<bool(std::uint64_t)> &fits)
{
    DEEPUM_ASSERT(lo >= 1 && lo <= hi, "search range [%llu, %llu]",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    if (!fits(lo))
        return 0;
    // Double up to hi; bad stays 0 while everything probed fits.
    std::uint64_t good = lo, bad = 0;
    while (good < hi && bad == 0) {
        // min(hi, 2 * good), without overflowing.
        std::uint64_t probe = good >= hi - good ? hi : good * 2;
        if (fits(probe))
            good = probe;
        else
            bad = probe;
    }
    if (bad == 0)
        return good;
    while (bad - good > std::max<std::uint64_t>(1, good / 64)) {
        std::uint64_t mid = good + (bad - good) / 2;
        if (fits(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

std::uint64_t
maxBatch(const std::string &model, SystemKind kind,
         const ExperimentConfig &cfg, std::uint64_t lo,
         std::uint64_t hi)
{
    ExperimentConfig quick = cfg;
    quick.iterations = 3;
    quick.warmup = 1;
    return largestFitting(lo, hi, [&](std::uint64_t batch) {
        torch::Tape tape = models::buildModel(model, batch);
        return runExperiment(tape, kind, quick).ok;
    });
}

} // namespace deepum::harness
