/**
 * @file
 * Tests for the harness layer: session snapshots, the per-op kernel
 * descriptors a session keeps across launches, the OC-DNN manual
 * prefetch mode, the mechanism-ablation flags, the energy model, and
 * the text reporters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "harness/energy.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/session.hh"
#include "mem/frame_pool.hh"
#include "mem/va_space.hh"
#include "models/registry.hh"
#include "torch/allocator.hh"
#include "torch/um_source.hh"
#include "uvm/driver.hh"
#include "uvm/listener.hh"

using namespace deepum;
using namespace deepum::harness;

namespace {

ExperimentConfig
quick()
{
    ExperimentConfig cfg;
    cfg.iterations = 12;
    cfg.warmup = 6;
    return cfg;
}

// ---------------------------------------------------------- session

TEST(Harness, SnapshotsAreMonotonic)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult r = runExperiment(tape, SystemKind::Um, quick());
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.ticksPerIter, 0u);
    EXPECT_GT(r.computeTicksPerIter, 0u);
}

TEST(Harness, OcDnnBeatsUmButTrailsDeepUm)
{
    torch::Tape tape = models::buildModel("gpt2-l", 5);
    ExperimentConfig cfg = quick();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult oc = runExperiment(tape, SystemKind::OcDnn, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && oc.ok && dum.ok);
    // Manual per-op prefetch (OC-DNN, related work) helps over naive
    // UM but cannot look far enough ahead to match DeepUM.
    EXPECT_LT(oc.secPer100Iters, 0.9 * um.secPer100Iters);
    EXPECT_LT(dum.secPer100Iters, oc.secPer100Iters);
    EXPECT_EQ(um.stats.at("uvm.prefetchIssued"), 0u);
    EXPECT_GT(oc.stats.at("uvm.prefetchIssued"), 0u);
}

/** The blocks each launch touched, in launch order. */
struct LaunchLog : uvm::DriverListener {
    std::vector<std::pair<std::string, std::set<mem::BlockId>>> launches;
    std::set<mem::BlockId> current;

    void
    onBlockAccessed(mem::BlockId block) override
    {
        current.insert(block);
    }

    void
    onKernelEnd(const gpu::KernelInfo &k) override
    {
        launches.emplace_back(k.name, std::move(current));
        current.clear();
    }

    /** The block sets of every launch of @p name. */
    std::vector<std::set<mem::BlockId>>
    of(const std::string &name) const
    {
        std::vector<std::set<mem::BlockId>> out;
        for (const auto &[n, blocks] : launches)
            if (n == name)
                out.push_back(blocks);
        return out;
    }
};

/** A naive-UM stack wired like runExperiment, with a launch log. */
struct SessionStack {
    ExperimentConfig cfg;
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg.timing};
    mem::FramePool frames{cfg.gpuMemBytes / mem::kPageSize};
    mem::VaSpace va{cfg.hostMemBytes};
    gpu::GpuEngine engine{eq, cfg.timing, fb, stats};
    uvm::Driver driver{eq, cfg.timing, fb, link, frames, stats};
    core::Runtime runtime{va, driver, engine};
    torch::UmSegmentSource source{runtime};
    torch::CachingAllocator alloc{source, stats};
    LaunchLog log;

    SessionStack()
    {
        engine.setBackend(&driver);
        driver.setEngine(&engine);
        driver.addListener(&log);
    }

    bool
    run(const torch::Tape &tape, std::uint32_t iterations)
    {
        Session session(eq, runtime, alloc, stats, link, tape,
                        iterations, /*seed=*/7);
        return session.run();
    }
};

torch::TapeStep
alloc(torch::TensorId t)
{
    return {torch::StepKind::Alloc, t, -1};
}

torch::TapeStep
release(torch::TensorId t)
{
    return {torch::StepKind::Free, t, -1};
}

torch::TapeStep
launch(std::int32_t op)
{
    return {torch::StepKind::Launch, torch::kNoTensor, op};
}

/**
 * Op 0 ("K") writes tensor x; op 1 ("G") gathers 4 of a 32 MiB
 * table's 16 blocks. Each iteration launches K with x at one VA,
 * then parks a same-sized tensor there and launches K again with x
 * at the next VA, then launches G three times.
 */
torch::Tape
rebindingTape()
{
    constexpr torch::TensorId kX = 0, kPin = 1, kTable = 2;
    torch::Tape t;
    t.modelName = "rebinding";
    t.batchSize = 1;
    t.tensors = {{"x", 4 * sim::kMiB, torch::TensorKind::Activation},
                 {"pin", 4 * sim::kMiB, torch::TensorKind::Activation},
                 {"table", 32 * sim::kMiB, torch::TensorKind::Weight}};
    torch::TapeOp k;
    k.name = "K";
    k.computeNs = 10 * sim::kUsec;
    k.uses = {{kX, true}};
    torch::TapeOp g;
    g.name = "G";
    g.computeNs = 10 * sim::kUsec;
    g.gatherTensor = kTable;
    g.gatherBlocks = 4;
    t.ops = {k, g};
    t.prologue = {alloc(kTable)};
    t.iteration = {alloc(kX),   launch(0),     release(kX),
                   alloc(kPin), alloc(kX),     launch(0),
                   launch(1),   launch(1),     launch(1),
                   release(kX), release(kPin)};
    return t;
}

TEST(Session, RebuildsAKernelWhoseTensorMoved)
{
    SessionStack s;
    ASSERT_TRUE(s.run(rebindingTape(), 3));
    auto k = s.log.of("K");
    ASSERT_EQ(k.size(), 6u); // two launches per iteration
    // x spans two 2 MiB blocks at each VA, and the second VA shares
    // no block with the first: K's second launch sees only the new
    // blocks.
    for (std::size_t i = 0; i < k.size(); i += 2) {
        EXPECT_EQ(k[i].size(), 2u);
        EXPECT_EQ(k[i + 1].size(), 2u);
        for (mem::BlockId b : k[i + 1])
            EXPECT_EQ(k[i].count(b), 0u) << "launch " << i + 1;
    }
    // Every iteration binds x to the same two VAs again, so moving
    // back rebuilds too.
    for (std::size_t i = 2; i < k.size(); ++i)
        EXPECT_EQ(k[i], k[i - 2]) << "launch " << i;
}

TEST(Session, GatherDrawsFreshBlocksAtEveryLaunch)
{
    SessionStack s;
    ASSERT_TRUE(s.run(rebindingTape(), 3));
    auto g = s.log.of("G");
    ASSERT_EQ(g.size(), 9u);
    std::set<mem::BlockId> table;
    for (const auto &blocks : g) {
        EXPECT_EQ(blocks.size(), 4u);
        table.insert(blocks.begin(), blocks.end());
    }
    EXPECT_LE(table.size(), 16u); // all from the one table
    for (std::size_t i = 1; i < g.size(); ++i)
        EXPECT_NE(g[i], g[i - 1]) << "launch " << i;
}

TEST(SessionDeath, UnboundUseStillPanicsWithADescriptorKept)
{
    // First launch with x unbound, and a launch after x was freed
    // (K's kept descriptor still names x's old blocks).
    torch::Tape first = rebindingTape();
    first.iteration = {launch(0)};
    EXPECT_DEATH(SessionStack().run(first, 1),
                 "kernel K writes unallocated tensor x");
    torch::Tape after_free = rebindingTape();
    after_free.iteration = {alloc(0), launch(0), release(0), launch(0)};
    EXPECT_DEATH(SessionStack().run(after_free, 1),
                 "kernel K writes unallocated tensor x");
}

TEST(HarnessDeath, GpuSmallerThanOneSmBatchIsRejected)
{
    // The worst-case SM batch, 8 distinct blocks, needs 16 MiB
    // resident at once; bert-base/30 never finishes in 14 MiB, so the
    // config is refused before any setup.
    torch::Tape tape = models::buildModel("bert-base", 30);
    ExperimentConfig cfg = quick();
    EXPECT_EQ(minGpuMemBytes(cfg.timing), 16 * sim::kMiB);
    cfg.gpuMemBytes = 14 * sim::kMiB;
    EXPECT_EXIT(runExperiment(tape, SystemKind::Um, cfg),
                testing::ExitedWithCode(1), "below one SM batch");
}

TEST(HarnessDeath, RunWithNoMeasuredIterationIsRejected)
{
    // Refused before any setup.
    torch::Tape tape = models::buildModel("bert-base", 30);
    ExperimentConfig cfg = quick();
    cfg.iterations = 0;
    cfg.warmup = 0;
    EXPECT_EXIT(runExperiment(tape, SystemKind::Um, cfg),
                testing::ExitedWithCode(1),
                "iterations \\(0\\) must exceed warmup \\(0\\)");
    cfg.iterations = 4;
    cfg.warmup = 4;
    EXPECT_EXIT(runExperiment(tape, SystemKind::DeepUm, cfg),
                testing::ExitedWithCode(1),
                "iterations \\(4\\) must exceed warmup \\(4\\)");
}

TEST(Harness, SystemNamesArePrintable)
{
    EXPECT_STREQ(systemName(SystemKind::Um), "UM");
    EXPECT_STREQ(systemName(SystemKind::OcDnn), "OC-DNN");
    EXPECT_STREQ(systemName(SystemKind::DeepUm), "DeepUM");
    EXPECT_STREQ(systemName(SystemKind::Ideal), "Ideal");
}

// ------------------------------------------------- mechanism flags

TEST(Harness, MechanismFlagsAreHonored)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    // Each ablation must still produce a working (ok) run that does
    // not beat the full configuration by more than noise.
    ExperimentConfig full = quick();
    RunResult r_full = runExperiment(tape, SystemKind::DeepUm, full);
    ASSERT_TRUE(r_full.ok);

    for (int which = 0; which < 3; ++which) {
        ExperimentConfig cfg = quick();
        if (which == 0)
            cfg.deepum.captureHysteresis = false;
        if (which == 1)
            cfg.deepum.freshTagChaining = false;
        if (which == 2)
            cfg.deepum.wasteFeedback = false;
        RunResult r = runExperiment(tape, SystemKind::DeepUm, cfg);
        ASSERT_TRUE(r.ok) << which;
        EXPECT_GT(r.secPer100Iters, 0.85 * r_full.secPer100Iters)
            << "ablation " << which
            << " should not massively beat the full config";
    }
}

TEST(Harness, FreshTagChainingReducesFaults)
{
    torch::Tape tape = models::buildModel("resnet152", 1536);
    ExperimentConfig with = quick();
    ExperimentConfig without = quick();
    without.deepum.freshTagChaining = false;
    RunResult a = runExperiment(tape, SystemKind::DeepUm, with);
    RunResult b = runExperiment(tape, SystemKind::DeepUm, without);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_LT(a.pageFaultsPerIter, b.pageFaultsPerIter);
}

// ------------------------------------------------------- energy

TEST(Energy, BaselinePowerDominatesIdleTime)
{
    EnergyModel m;
    double idle = m.joules(sim::kSec, 0, 0, 0);
    EXPECT_DOUBLE_EQ(idle, m.basePowerW);
}

TEST(Energy, ActivityAddsOnTop)
{
    EnergyModel m;
    double busy = m.joules(sim::kSec, sim::kSec, sim::kSec,
                           1'000'000'000);
    EXPECT_NEAR(busy,
                m.basePowerW + m.gpuPowerW + m.linkPowerW +
                    m.perByteNj * 1e-9 * 1e9,
                1e-9);
}

// ------------------------------------------------------ reporters

TEST(Report, TextTableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.row({"a", "1"});
    t.row({"long-name", "23456"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Right-aligned numeric column: "1" sits at the line end.
    EXPECT_NE(out.find("a              1"), std::string::npos);
}

TEST(ReportDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "width");
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtSpeedup(2.5), "2.50x");
    EXPECT_EQ(fmtSpeedup(0.0), "-");
    EXPECT_EQ(fmtMiB(512 * 1024), "0.5 MiB");
    EXPECT_EQ(fmtBatch(96 * 1024), "96K");
    EXPECT_EQ(fmtBatch(1500), "1.5K");
    EXPECT_EQ(fmtBatch(31), "31");
}

TEST(Report, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

// ----------------------------------------------------- max batch

TEST(Harness, LargestFittingBracketsAThreshold)
{
    for (std::uint64_t limit : {1ull, 2ull, 3ull, 5ull, 63ull, 100ull,
                                1000ull, 4097ull, 123456ull}) {
        auto fits = [&](std::uint64_t x) { return x <= limit; };
        // lo fails.
        EXPECT_EQ(largestFitting(limit + 1, 1 << 20, fits), 0u);
        // Everything up to hi fits.
        EXPECT_EQ(largestFitting(1, limit, fits), limit);
        EXPECT_EQ(largestFitting(limit, limit, fits), limit);
        // Otherwise the answer fits and lies within max(1, g/64) of
        // the threshold.
        for (std::uint64_t lo : {1ull, 2ull, 7ull}) {
            if (lo > limit)
                continue;
            std::uint64_t g = largestFitting(lo, 1 << 20, fits);
            EXPECT_LE(g, limit) << "lo " << lo << " limit " << limit;
            EXPECT_LT(limit - g, std::max<std::uint64_t>(1, g / 64))
                << "lo " << lo << " limit " << limit;
        }
    }
}

TEST(Harness, MaxBatchReturnsZeroWhenLoFails)
{
    ExperimentConfig cfg = quick();
    cfg.hostMemBytes = 64 * sim::kMiB; // nothing fits
    EXPECT_EQ(maxBatch("bert-large", SystemKind::Um, cfg, 8, 64), 0u);
}

TEST(Harness, MaxBatchHitsUpperBoundWhenEverythingFits)
{
    ExperimentConfig cfg = quick();
    cfg.hostMemBytes = 8 * sim::kGiB;
    EXPECT_EQ(maxBatch("bert-base", SystemKind::DeepUm, cfg, 2, 8),
              8u);
}

} // namespace
