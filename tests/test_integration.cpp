/**
 * @file
 * End-to-end integration tests: full experiments through the
 * harness, checking the paper's qualitative results hold on the
 * simulator — DeepUM beats naive UM on regular workloads, DLRM gets
 * little benefit, the ablation ordering of Figure 10, fault-count
 * reduction of Table 5, bit-exact determinism, DeepUM with every
 * mechanism off reducing to UM on every Figure-9 cell, and no-op
 * events leaving every stat unchanged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"

using namespace deepum;
using namespace deepum::harness;

namespace {

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.iterations = 14;
    cfg.warmup = 8;
    return cfg;
}

/** Expect distribution @p name to read the same in @p a and @p b. */
void
expectSameDist(const DistSummary &a, const DistSummary &b,
               const std::string &name)
{
    EXPECT_EQ(a.count, b.count) << name;
    EXPECT_EQ(a.min, b.min) << name;
    EXPECT_EQ(a.max, b.max) << name;
    EXPECT_EQ(a.mean, b.mean) << name;
    EXPECT_EQ(a.stddev, b.stddev) << name;
    EXPECT_EQ(a.p50, b.p50) << name;
    EXPECT_EQ(a.p99, b.p99) << name;
}

TEST(Integration, DeepUmBeatsUmOnTransformer)
{
    torch::Tape tape = models::buildModel("bert-large", 16);
    ExperimentConfig cfg = quickConfig();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    RunResult ideal = runExperiment(tape, SystemKind::Ideal, cfg);
    ASSERT_TRUE(um.ok && dum.ok && ideal.ok);
    // Paper Figure 9: DeepUM is ~3x over UM; Ideal bounds DeepUM.
    EXPECT_GT(um.secPer100Iters / dum.secPer100Iters, 2.0);
    EXPECT_LE(ideal.secPer100Iters, dum.secPer100Iters * 1.001);
}

TEST(Integration, FaultCountCollapsesUnderDeepUm)
{
    torch::Tape tape = models::buildModel("bert-large", 16);
    ExperimentConfig cfg = quickConfig();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && dum.ok);
    // Paper Table 5: DeepUM's faults are a tiny fraction of UM's.
    EXPECT_LT(dum.pageFaultsPerIter, 0.05 * um.pageFaultsPerIter);
}

TEST(Integration, DlrmGainsLittle)
{
    torch::Tape tape = models::buildModel("dlrm", 163840);
    ExperimentConfig cfg = quickConfig();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && dum.ok);
    double speedup = um.secPer100Iters / dum.secPer100Iters;
    // The negative result: irregular gathers defeat correlation
    // prefetching. Speedup stays far below the regular models'.
    EXPECT_LT(speedup, 2.2);
    // And DeepUM's residual fault share stays an order of magnitude
    // above the regular models' (<1%, see Table 5 bench).
    EXPECT_GT(dum.pageFaultsPerIter, 0.02 * um.pageFaultsPerIter);
}

TEST(Integration, AblationOrderingMatchesFigure10)
{
    torch::Tape tape = models::buildModel("gpt2-l", 5);
    ExperimentConfig cfg = quickConfig();

    RunResult um = runExperiment(tape, SystemKind::Um, cfg);

    ExperimentConfig pf = cfg;
    pf.deepum.prefetch = true;
    pf.deepum.preevict = false;
    pf.deepum.invalidate = false;
    RunResult r_pf = runExperiment(tape, SystemKind::DeepUm, pf);

    ExperimentConfig pe = pf;
    pe.deepum.preevict = true;
    RunResult r_pe = runExperiment(tape, SystemKind::DeepUm, pe);

    ExperimentConfig all = pe;
    all.deepum.invalidate = true;
    RunResult r_all = runExperiment(tape, SystemKind::DeepUm, all);

    ASSERT_TRUE(um.ok && r_pf.ok && r_pe.ok && r_all.ok);
    // Prefetching alone already cuts a large share of UM's time;
    // each optimization only helps further (paper Figure 10).
    EXPECT_LT(r_pf.secPer100Iters, 0.75 * um.secPer100Iters);
    EXPECT_LE(r_pe.secPer100Iters, r_pf.secPer100Iters * 1.02);
    EXPECT_LE(r_all.secPer100Iters, r_pe.secPer100Iters * 1.02);
    EXPECT_LT(r_all.secPer100Iters, 0.95 * r_pf.secPer100Iters);
}

TEST(Integration, InvalidationRemovesWritebackTraffic)
{
    torch::Tape tape = models::buildModel("gpt2-l", 5);
    ExperimentConfig cfg = quickConfig();
    ExperimentConfig noinv = cfg;
    noinv.deepum.invalidate = false;
    RunResult with_inv = runExperiment(tape, SystemKind::DeepUm, cfg);
    RunResult without =
        runExperiment(tape, SystemKind::DeepUm, noinv);
    ASSERT_TRUE(with_inv.ok && without.ok);
    EXPECT_LT(with_inv.bytesDtoHPerIter, without.bytesDtoHPerIter);
    EXPECT_GT(with_inv.stats.at("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(without.stats.at("uvm.invalidatedBlocks"), 0u);
}

TEST(Integration, PreevictionMovesEvictionsOffTheFaultPath)
{
    torch::Tape tape = models::buildModel("bert-large", 18);
    ExperimentConfig cfg = quickConfig();
    ExperimentConfig nopre = cfg;
    nopre.deepum.preevict = false;
    RunResult with_pre = runExperiment(tape, SystemKind::DeepUm, cfg);
    RunResult without =
        runExperiment(tape, SystemKind::DeepUm, nopre);
    ASSERT_TRUE(with_pre.ok && without.ok);
    EXPECT_GT(with_pre.stats.at("uvm.preEvictions"), 0u);
    EXPECT_EQ(without.stats.at("uvm.preEvictions"), 0u);
}

TEST(Integration, IdealHasNoTraffic)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult ideal =
        runExperiment(tape, SystemKind::Ideal, quickConfig());
    ASSERT_TRUE(ideal.ok);
    EXPECT_EQ(ideal.bytesHtoDPerIter, 0u);
    EXPECT_EQ(ideal.bytesDtoHPerIter, 0u);
    EXPECT_EQ(ideal.pageFaultsPerIter, 0.0);
}

TEST(Integration, RunsAreBitDeterministic)
{
    torch::Tape tape = models::buildModel("dlrm", 98304);
    ExperimentConfig cfg = quickConfig();
    RunResult a = runExperiment(tape, SystemKind::DeepUm, cfg);
    RunResult b = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.ticksPerIter, b.ticksPerIter);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Integration, DeepUmWithEveryMechanismOffMatchesUm)
{
    // Metamorphic relation: without prefetching, pre-eviction (and
    // with it the protected-aware victim policy) and invalidation,
    // DeepUM's driver is the stock UM driver, so every stat the two
    // runs share under gpu.* and uvm.* must be equal. Every Figure-9
    // cell, plus mobilenet/256, a control that never evicts.
    ExperimentConfig cfg;
    cfg.iterations = 8;
    cfg.warmup = 2;
    ExperimentConfig off = cfg;
    off.deepum.prefetch = false;
    off.deepum.preevict = false;
    off.deepum.invalidate = false;
    auto shared = [](const std::string &name) {
        return name.rfind("gpu.", 0) == 0 || name.rfind("uvm.", 0) == 0;
    };
    std::vector<bench::Cell> cells = bench::fig9Grid();
    cells.push_back({"mobilenet", 256});
    std::size_t evicting = 0;
    for (const auto &[model, batch] : cells) {
        SCOPED_TRACE(std::string(model) + "/" + std::to_string(batch));
        torch::Tape tape = models::buildModel(model, batch);
        RunResult um = runExperiment(tape, SystemKind::Um, cfg);
        RunResult dum = runExperiment(tape, SystemKind::DeepUm, off);
        ASSERT_TRUE(um.ok && dum.ok);
        std::size_t scalars = 0, dists = 0;
        for (const auto &[name, v] : um.stats) {
            auto it = dum.stats.find(name);
            if (!shared(name) || it == dum.stats.end())
                continue;
            EXPECT_EQ(it->second, v) << name;
            ++scalars;
        }
        for (const auto &[name, d] : um.dists) {
            auto it = dum.dists.find(name);
            if (!shared(name) || it == dum.dists.end())
                continue;
            expectSameDist(it->second, d, name);
            ++dists;
        }
        EXPECT_GE(scalars, 23u);
        EXPECT_GE(dists, 2u);
        evicting += um.stats.at("uvm.demandEvictions") != 0;
    }
    // dlrm/96K and mobilenet/256 fit in GPU memory; the other 22
    // cells evict.
    EXPECT_EQ(evicting, cells.size() - 2);
}

TEST(Integration, NoOpEventsChangeNoStat)
{
    // Metamorphic relation: the time-series sampler's events only
    // read state, so attaching it, at an interval prime to every
    // modelled latency, puts no-op events at arbitrary ticks and must
    // leave every stat equal. It guards the order in which the GPU's
    // and the driver's in-place steps and the heap's events fire.
    ExperimentConfig cfg;
    cfg.iterations = 8;
    cfg.warmup = 2;
    ExperimentConfig sampled = cfg;
    sampled.timeseriesFile = ::testing::TempDir() + "noop_events.csv";
    sampled.timeseriesInterval = 9973;
    const bench::Cell cells[] = {
        {"bert-base", 30},
        {"dlrm", 229376},
        {"resnet152", 1792},
    };
    for (const auto &[model, batch] : cells) {
        torch::Tape tape = models::buildModel(model, batch);
        for (SystemKind kind : {SystemKind::Um, SystemKind::DeepUm,
                                SystemKind::Ideal, SystemKind::OcDnn}) {
            SCOPED_TRACE(std::string(model) + "/" +
                         std::to_string(batch) + " " +
                         systemName(kind));
            RunResult plain = runExperiment(tape, kind, cfg);
            RunResult with = runExperiment(tape, kind, sampled);
            ASSERT_TRUE(plain.ok && with.ok);
            // DEEPUM_VALIDATE builds count their audits in validate.*,
            // and the sampler is one more audited component.
            auto audit = [](const auto &kv) {
                return kv.first.rfind("validate.", 0) == 0;
            };
            std::erase_if(with.stats, audit);
            std::erase_if(plain.stats, audit);
            EXPECT_EQ(with.ticksPerIter, plain.ticksPerIter);
            EXPECT_EQ(with.stats, plain.stats);
            ASSERT_EQ(with.dists.size(), plain.dists.size());
            for (const auto &[name, d] : plain.dists)
                expectSameDist(with.dists.at(name), d, name);
        }
    }
    std::remove(sampled.timeseriesFile.c_str());
}

TEST(Integration, SeedChangesIrregularWorkloadTiming)
{
    torch::Tape tape = models::buildModel("dlrm", 131072);
    ExperimentConfig cfg = quickConfig();
    ExperimentConfig cfg2 = cfg;
    cfg2.seed = cfg.seed + 1;
    RunResult a = runExperiment(tape, SystemKind::Um, cfg);
    RunResult b = runExperiment(tape, SystemKind::Um, cfg2);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_NE(a.ticksPerIter, b.ticksPerIter);
}

TEST(Integration, HostHeapExhaustionIsOom)
{
    ExperimentConfig cfg = quickConfig();
    cfg.hostMemBytes = 300 * sim::kMiB;
    torch::Tape tape = models::buildModel("gpt2-xl", 7); // ~600 MiB
    RunResult r = runExperiment(tape, SystemKind::Um, cfg);
    EXPECT_FALSE(r.ok);
}

TEST(Integration, MaxBatchDeepUmExceedsUmCapacityBound)
{
    // DeepUM's max batch is host-memory-bound (Table 3): with a
    // generous host it far exceeds what fits in device memory.
    ExperimentConfig cfg = quickConfig();
    cfg.hostMemBytes = 2 * sim::kGiB;
    std::uint64_t mb =
        maxBatch("bert-large", SystemKind::DeepUm, cfg, 4, 4096);
    // Device memory alone would cap near (256-60)/18 ~ 11 samples.
    EXPECT_GT(mb, 40u);
}

TEST(Integration, EnergyTracksTimeOrdering)
{
    torch::Tape tape = models::buildModel("gpt2-l", 5);
    ExperimentConfig cfg = quickConfig();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && dum.ok);
    // Paper Figure 9(c): DeepUM consumes far less energy than UM.
    EXPECT_LT(dum.energyJPerIter, 0.7 * um.energyJPerIter);
}

TEST(Integration, CorrelationTableBytesReported)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult dum =
        runExperiment(tape, SystemKind::DeepUm, quickConfig());
    ASSERT_TRUE(dum.ok);
    // Table 4: block tables dominate; size = tables x geometry.
    EXPECT_GT(dum.tableBytes, 1 * sim::kMiB);
}

} // namespace
