/**
 * @file
 * Tests for the observability layer added around the simulator: the
 * migration provenance ledger (arrival/departure causes, prefetch and
 * eviction outcome classification, derived accuracy metrics) and the
 * periodic time-series sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "harness/experiment.hh"
#include "models/registry.hh"
#include "sim/event_queue.hh"
#include "sim/timeseries.hh"

using namespace deepum;
using namespace deepum::harness;

namespace {

ExperimentConfig
quick(bool ledger)
{
    ExperimentConfig cfg;
    cfg.iterations = 12;
    cfg.warmup = 6;
    cfg.ledger = ledger;
    return cfg;
}

/** An oversubscribed cell, so migrations actually happen. */
RunResult
ledgerRun()
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    return runExperiment(tape, SystemKind::DeepUm, quick(true));
}

// ----------------------------------------------------------- ledger

TEST(Ledger, OutcomesReconcileWithDriverCounters)
{
    RunResult r = ledgerRun();
    ASSERT_TRUE(r.ok);
    const uvm::LedgerSummary &l = r.ledger;
    ASSERT_TRUE(l.enabled);

    // Every completed prefetch produced exactly one ledger arrival,
    // and finalize() classified every one of them.
    EXPECT_EQ(l.arrivalsPrefetch, r.stats.at("uvm.prefetchCompleted"));
    EXPECT_EQ(l.prefetchUseful + l.prefetchLate + l.prefetchWasted,
              l.arrivalsPrefetch);
    EXPECT_EQ(l.prefetchOpen, 0u);

    // The driver's own useful counter ticks at the same touch that
    // classifies the ledger record.
    EXPECT_EQ(l.prefetchUseful + l.prefetchLate,
              r.stats.at("uvm.prefetchUseful"));

    // Oversubscribed DeepUM: prefetching fires and mostly lands.
    EXPECT_GT(l.arrivalsPrefetch, 0u);
    EXPECT_GT(l.prefetchUseful, 0u);
    EXPECT_GT(l.arrivalsDemand, 0u);

    // Eviction outcomes cover exactly the evictions that can thrash
    // (invalidations and frees are not re-fault candidates).
    EXPECT_EQ(l.evictClean + l.evictThrash,
              l.departDemandEvict + l.departPreEvict);
}

TEST(Ledger, DerivedMetricsAreRatios)
{
    RunResult r = ledgerRun();
    ASSERT_TRUE(r.ok);
    const uvm::LedgerSummary &l = r.ledger;
    EXPECT_GE(l.prefetchPrecision, 0.0);
    EXPECT_LE(l.prefetchPrecision, 1.0);
    EXPECT_GE(l.prefetchCoverage, 0.0);
    EXPECT_LE(l.prefetchCoverage, 1.0);
    EXPECT_GE(l.thrashRate, 0.0);
    EXPECT_LE(l.thrashRate, 1.0);
    EXPECT_GT(l.meanUsefulLeadTicks, 0.0);

    // The basis-point scalars mirror the summary ratios.
    EXPECT_EQ(r.stats.at("ledger.prefetchPrecisionBp"),
              static_cast<std::uint64_t>(
                  l.prefetchUseful * 10'000 /
                  (l.prefetchUseful + l.prefetchLate +
                   l.prefetchWasted)));
}

TEST(Ledger, HotBlockTableIsSortedAndBounded)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    ExperimentConfig cfg = quick(true);
    cfg.ledgerHotBlocks = 4;
    RunResult r = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(r.ok);
    ASSERT_LE(r.ledger.hot.size(), 4u);
    ASSERT_FALSE(r.ledger.hot.empty());
    for (std::size_t i = 1; i < r.ledger.hot.size(); ++i) {
        auto total = [](const uvm::LedgerSummary::HotBlock &h) {
            return h.demandArrivals + h.prefetchArrivals;
        };
        const auto &prev = r.ledger.hot[i - 1];
        const auto &cur = r.ledger.hot[i];
        EXPECT_TRUE(total(prev) > total(cur) ||
                    (total(prev) == total(cur) &&
                     prev.block < cur.block))
            << "hot table must sort by migrations desc, block asc";
    }
}

TEST(Ledger, DisabledRunRegistersNothing)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult r = runExperiment(tape, SystemKind::DeepUm, quick(false));
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.ledger.enabled);
    for (const auto &[name, value] : r.stats)
        EXPECT_EQ(name.rfind("ledger.", 0), std::string::npos)
            << name << "=" << value;
}

TEST(Ledger, EnablingDoesNotPerturbTheSimulation)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult off = runExperiment(tape, SystemKind::DeepUm,
                                  quick(false));
    RunResult on = runExperiment(tape, SystemKind::DeepUm,
                                 quick(true));
    ASSERT_TRUE(off.ok && on.ok);
    // The ledger only observes: every pre-existing counter and the
    // timing results must be bit-identical with it attached.
    EXPECT_EQ(off.ticksPerIter, on.ticksPerIter);
    EXPECT_EQ(off.secPer100Iters, on.secPer100Iters);
    EXPECT_EQ(off.pageFaultsPerIter, on.pageFaultsPerIter);
    for (const auto &[name, value] : off.stats) {
        // validate.* counts audit work, which legitimately grows
        // when the ledger registers itself with the validator.
        if (name.rfind("validate.", 0) == 0)
            continue;
        auto it = on.stats.find(name);
        ASSERT_NE(it, on.stats.end()) << name;
        EXPECT_EQ(value, it->second) << name;
    }
}

TEST(Ledger, UmRunHasNoPrefetchArrivals)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult r = runExperiment(tape, SystemKind::Um, quick(true));
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.ledger.enabled);
    EXPECT_EQ(r.ledger.arrivalsPrefetch, 0u);
    EXPECT_GT(r.ledger.arrivalsDemand, 0u);
    EXPECT_EQ(r.ledger.prefetchPrecision, 0.0);
}

// ------------------------------------------------------- timeseries

TEST(TimeSeries, SamplesAreRectangularAndOrdered)
{
    sim::EventQueue eq;
    std::uint64_t work = 0;
    for (int i = 1; i <= 10; ++i)
        eq.scheduleIn(static_cast<sim::Tick>(i) * 100, [&] { ++work; });

    sim::TimeSeriesSampler ts(eq, 50);
    ts.addSeries("work", [&] { return work; });
    ts.addSeries("constant", [] { return 7u; });
    ts.start();
    eq.run();

    EXPECT_EQ(work, 10u);
    EXPECT_EQ(ts.seriesCount(), 2u);
    // Samples at 0, 50, ..., up to the drain point.
    EXPECT_GE(ts.sampleCount(), 10u);

    std::ostringstream csv;
    ts.writeCsv(csv);
    std::string out = csv.str();
    EXPECT_EQ(out.rfind("tick,work,constant\n", 0), 0u) << out;
    EXPECT_NE(out.find(",7"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(out.begin(), out.end(), '\n')),
              ts.sampleCount() + 1);
}

TEST(TimeSeries, SamplingDoesNotAlterSimulationTime)
{
    auto run = [](bool sample) {
        sim::EventQueue eq;
        std::uint64_t acc = 0;
        for (int i = 1; i <= 64; ++i)
            eq.scheduleIn(static_cast<sim::Tick>(i) * 37,
                          [&acc, i] { acc += i; });
        sim::TimeSeriesSampler ts(eq, 10);
        if (sample) {
            ts.addSeries("acc", [&] { return acc; });
            ts.start();
        }
        sim::Tick end = eq.run();
        return std::pair<sim::Tick, std::uint64_t>(end, acc);
    };
    auto off = run(false);
    auto on = run(true);
    EXPECT_EQ(off.second, on.second);
    // The sampler keeps riding until the non-sampler events drain, so
    // the final tick can only move forward to its last sample point.
    EXPECT_GE(on.first, off.first);
}

TEST(TimeSeries, DecimationDoublesIntervalAndKeepsTicksSorted)
{
    sim::EventQueue eq;
    // A long busy period: one event every tick for 300 ticks.
    std::uint64_t n = 0;
    std::function<void()> chain = [&] {
        if (++n < 300)
            eq.scheduleIn(1, [&chain] { chain(); });
    };
    eq.scheduleIn(1, [&chain] { chain(); });

    sim::TimeSeriesSampler ts(eq, 1, /*max_samples=*/64);
    ts.addSeries("n", [&] { return n; });
    ts.start();
    eq.run();

    // 300+ samples at interval 1 must have decimated below the cap,
    // at least doubling the interval.
    EXPECT_LT(ts.sampleCount(), 64u);
    EXPECT_GE(ts.interval(), 2u);

    std::ostringstream js;
    ts.writeJson(js);
    std::string out = js.str();
    EXPECT_NE(out.find("\"interval\""), std::string::npos);
    EXPECT_NE(out.find("\"ticks\""), std::string::npos);
    EXPECT_NE(out.find("\"n\""), std::string::npos);
}

TEST(TimeSeries, HarnessWritesCsvFile)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    ExperimentConfig cfg = quick(false);
    cfg.timeseriesFile =
        ::testing::TempDir() + "observability_ts.csv";
    cfg.timeseriesInterval = 1'000'000;
    RunResult r = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(r.ok);

    std::ifstream in(cfg.timeseriesFile);
    ASSERT_TRUE(in.good()) << cfg.timeseriesFile;
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "tick,frames.usedPages,faultQueue.depth,"
              "prefetchQueue.depth,pcie.utilPct");
    std::size_t rows = 0;
    sim::Tick prev = 0;
    for (std::string line; std::getline(in, line); ++rows) {
        sim::Tick t = std::stoull(line.substr(0, line.find(',')));
        EXPECT_TRUE(rows == 0 || t > prev) << "row " << rows;
        prev = t;
    }
    EXPECT_GT(rows, 2u);
}

} // namespace
