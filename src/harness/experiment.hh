/**
 * @file
 * Experiment runner: one (model, batch, system) measurement.
 *
 * Wires the full stack — event queue, fault buffer, PCIe link, frame
 * pool, UVM driver, optional DeepUM module, runtime, caching
 * allocator, session — runs the training loop, and reduces the
 * per-iteration snapshots into the metrics the paper reports.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/config.hh"
#include "gpu/timing.hh"
#include "harness/energy.hh"
#include "sim/types.hh"
#include "torch/tape.hh"
#include "uvm/provenance.hh"

namespace deepum::harness {

/** Which memory system executes the run. */
enum class SystemKind {
    Ideal,  ///< GPU memory large enough: no oversubscription
    Um,     ///< naive CUDA UM: demand paging only
    OcDnn,  ///< UM + manual cudaMemPrefetchAsync before each op
    DeepUm, ///< UM + the DeepUM module (flags in DeepUmConfig)
};

/** @return a printable name for @p kind. */
const char *systemName(SystemKind kind);

/** Everything configurable about one run. */
struct ExperimentConfig {
    std::uint64_t gpuMemBytes = 256 * sim::kMiB;
    std::uint64_t hostMemBytes = 4 * sim::kGiB; ///< UM heap capacity
    gpu::TimingConfig timing;
    core::DeepUmConfig deepum; ///< used when kind == DeepUm
    EnergyModel energy;
    std::uint32_t iterations = 18;
    std::uint32_t warmup = 8;
    std::uint64_t seed = 12345;

    /**
     * Write a Chrome/Perfetto trace of the run to this path
     * (empty = tracing off, the zero-cost default). Open the file in
     * chrome://tracing or https://ui.perfetto.dev.
     */
    std::string traceFile;

    /** Write the full stat registry as JSON to this path (empty = off). */
    std::string statsJsonFile;

    /**
     * Attach the migration provenance ledger (uvm/provenance.hh):
     * per-block arrival/departure causes, prefetch useful/late/
     * wasted and eviction clean/thrash classification, exported as
     * `ledger.*` stats and RunResult::ledger. Off by default — with
     * it off no ledger exists and runs are bit-identical to a build
     * without the feature.
     */
    bool ledger = false;

    /** Re-fault within this window classifies an eviction as thrash. */
    sim::Tick thrashWindowTicks = 1'000'000;

    /** Rows kept in the ledger's hot-block table. */
    std::size_t ledgerHotBlocks = 10;

    /**
     * Write sampled time series (resident frames, queue depths, PCIe
     * utilization) to this path — CSV, or JSON when the path ends in
     * ".json" (empty = sampler off, the zero-cost default).
     */
    std::string timeseriesFile;

    /** Ticks between time-series samples. */
    sim::Tick timeseriesInterval = 100'000;

    /** Not settable; kept for perfbench/src/traced_stack.cc. */
    static constexpr unsigned serviceThreads = 1;
};

/** Reduced view of one Distribution stat at end of run. */
struct DistSummary {
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

/** Reduced metrics of one run. */
struct RunResult {
    bool ok = false; ///< completed without OOM
    std::uint32_t measuredIters = 0;

    sim::Tick ticksPerIter = 0;
    double secPer100Iters = 0.0; ///< paper Fig. 9(b) unit
    double pageFaultsPerIter = 0.0;
    double energyJPerIter = 0.0;

    std::uint64_t bytesHtoDPerIter = 0;
    std::uint64_t bytesDtoHPerIter = 0;
    sim::Tick computeTicksPerIter = 0;

    /** DeepUM correlation tables at full geometry (paper Table 4). */
    std::uint64_t tableBytes = 0;

    /** Provenance-ledger summary (enabled == false when off). */
    uvm::LedgerSummary ledger;

    /** Full end-of-run counter dump for tests and debugging. */
    std::map<std::string, std::uint64_t> stats;

    /** End-of-run distribution summaries (fault batch size, ...). */
    std::map<std::string, DistSummary> dists;
};

/**
 * Smallest GPU memory runExperiment accepts: the worst case of one SM
 * batch, @p timing.smBatch distinct blocks that GpuEngine::advance
 * needs resident at once. A smaller GPU can still finish a run whose
 * batches repeat blocks, but on the shipped models it panics for want
 * of a victim or never finishes.
 */
std::uint64_t minGpuMemBytes(const gpu::TimingConfig &timing);

/**
 * Run @p tape once under @p kind. Fatal below minGpuMemBytes, and
 * unless warmup < iterations.
 */
RunResult runExperiment(const torch::Tape &tape, SystemKind kind,
                        const ExperimentConfig &cfg);

/**
 * Largest value in [@p lo, @p hi] that @p fits, assuming every value
 * below a fitting one fits too: doubling from @p lo, then bisection
 * until the least failing value probed is within max(1, answer / 64)
 * of the answer. @return 0 when @p lo does not fit. Requires
 * 1 <= @p lo <= @p hi.
 */
std::uint64_t
largestFitting(std::uint64_t lo, std::uint64_t hi,
               const std::function<bool(std::uint64_t)> &fits);

/**
 * Largest batch size of @p model in [@p lo, @p hi] that completes
 * under @p kind without OOM (largestFitting() over 3-iteration
 * runs); 0 when @p lo fails.
 */
std::uint64_t
maxBatch(const std::string &model, SystemKind kind,
         const ExperimentConfig &cfg, std::uint64_t lo,
         std::uint64_t hi);

} // namespace deepum::harness
