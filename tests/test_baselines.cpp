/**
 * @file
 * Tests for the tensor-swapping baselines: the use oracle, the swap
 * executor's semantics (working-set OOM, demand stalls, overlap),
 * and each published policy's distinguishing behavior.
 */

#include <gtest/gtest.h>

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/lms.hh"
#include "baselines/oracle.hh"
#include "baselines/runner.hh"
#include "baselines/sentinel.hh"
#include "baselines/swap_executor.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/vdnn.hh"
#include "models/registry.hh"

using namespace deepum;
using namespace deepum::baselines;

namespace {

SwapConfig
smallConfig()
{
    SwapConfig cfg;
    cfg.capacityBytes = 256 * sim::kMiB;
    cfg.hostBytes = 4 * sim::kGiB;
    cfg.iterations = 6;
    cfg.warmup = 2;
    return cfg;
}

// ------------------------------------------------------------- oracle

TEST(UseOracle, NextUseDistances)
{
    torch::Tape tape = models::buildModel("bert-base", 4);
    UseOracle o(tape);
    ASSERT_GT(o.opCount(), 0u);
    // A tensor used by op 0 has distance 0 there.
    auto t0 = o.tensorsOf(0).front();
    EXPECT_EQ(o.nextUseDistance(0, t0), 0u);
    // Every tensor of every op has distance 0 at that op.
    for (std::size_t pos = 0; pos < o.opCount(); ++pos)
        for (auto t : o.tensorsOf(pos))
            EXPECT_EQ(o.nextUseDistance(pos, t), 0u);
}

TEST(UseOracle, WrapsToNextIteration)
{
    torch::Tape tape = models::buildModel("bert-base", 4);
    UseOracle o(tape);
    auto t0 = o.tensorsOf(0).front();
    // Immediately after its last use the distance wraps around.
    std::uint64_t d = o.nextUseDistance(o.opCount() - 1, t0);
    if (d != 0) {
        EXPECT_LT(d, 2 * o.opCount());
    }
    EXPECT_GT(o.useCount(t0), 0u);
}

TEST(UseOracle, UnusedTensorNeverUsed)
{
    torch::Tape tape;
    tape.modelName = "t";
    tape.tensors.push_back({"x", 1024, torch::TensorKind::Workspace});
    UseOracle o(tape);
    EXPECT_EQ(o.useCount(0), 0u);
    EXPECT_EQ(o.firstUse(0), kNeverUsed);
}

// ----------------------------------------------------------- executor

TEST(SwapExecutor, IdealCapacityMatchesComputePlusOverheads)
{
    torch::Tape tape = models::buildModel("bert-base", 4);
    SwapConfig cfg = smallConfig();
    cfg.capacityBytes = 16 * sim::kGiB; // everything resident
    SentinelPolicy p;
    SwapResult r = runSwapBaseline(tape, p, cfg);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.bytesInPerIter, 0u);
    EXPECT_EQ(r.bytesOutPerIter, 0u);
    EXPECT_EQ(r.demandStallsPerIter, 0u);
}

TEST(SwapExecutor, OversubscriptionMovesData)
{
    torch::Tape tape = models::buildModel("gpt2-xl", 5);
    SwapConfig cfg = smallConfig();
    SentinelPolicy p;
    SwapResult r = runSwapBaseline(tape, p, cfg);
    ASSERT_TRUE(r.ok) << r.reason;
    EXPECT_GT(r.bytesInPerIter + r.bytesOutPerIter, 0u);
}

TEST(SwapExecutor, TinyDeviceIsOom)
{
    torch::Tape tape = models::buildModel("gpt2-xl", 5);
    SwapConfig cfg = smallConfig();
    cfg.capacityBytes = 8 * sim::kMiB;
    SentinelPolicy p;
    SwapResult r = runSwapBaseline(tape, p, cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.reason.empty());
}

TEST(SwapExecutor, BiggerDeviceIsFaster)
{
    torch::Tape tape = models::buildModel("gpt2-xl", 5);
    SwapConfig tight = smallConfig();
    SwapConfig roomy = smallConfig();
    roomy.capacityBytes = 2 * sim::kGiB;
    AutoTmPolicy p1, p2;
    SwapResult a = runSwapBaseline(tape, p1, tight);
    SwapResult b = runSwapBaseline(tape, p2, roomy);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_GE(a.ticksPerIter, b.ticksPerIter);
}

// ----------------------------------------------------------- policies

TEST(Lms, PinsPersistentTensors)
{
    torch::Tape tape = models::buildModel("bert-large", 8);
    UseOracle oracle(tape);
    gpu::TimingConfig timing;
    LmsPolicy lms;
    lms.plan(PlanContext{tape, oracle, timing, 256 * sim::kMiB,
                         4 * sim::kGiB});
    bool some_pinned = false, some_swappable = false;
    for (torch::TensorId t = 0;
         t < static_cast<torch::TensorId>(tape.tensors.size()); ++t) {
        bool pinned = lms.mustStayResident(t);
        bool persistent =
            tape.tensors[t].kind == torch::TensorKind::Weight ||
            tape.tensors[t].kind == torch::TensorKind::Gradient ||
            tape.tensors[t].kind == torch::TensorKind::OptState;
        EXPECT_EQ(pinned, persistent);
        some_pinned |= pinned;
        some_swappable |= !pinned;
    }
    EXPECT_TRUE(some_pinned);
    EXPECT_TRUE(some_swappable);
}

TEST(Lms, LmsModTradesTimeForCapacity)
{
    LmsPolicy lms;
    LmsModPolicy mod;
    torch::Tape tape = models::buildModel("gpt2-xl", 3);
    EXPECT_GT(mod.gpuUsableFraction(), lms.gpuUsableFraction());
    EXPECT_GT(mod.perIterOverhead(tape), lms.perIterOverhead(tape));
}

TEST(Vdnn, SupportsOnlyConvNets)
{
    VdnnPolicy v;
    EXPECT_TRUE(v.supports(models::buildModel("resnet152", 8)));
    EXPECT_TRUE(v.supports(models::buildModel("dcgan", 8)));
    EXPECT_TRUE(v.supports(models::buildModel("mobilenet", 8)));
    EXPECT_FALSE(v.supports(models::buildModel("bert-large", 8)));
    EXPECT_FALSE(v.supports(models::buildModel("gpt2-xl", 2)));
    EXPECT_FALSE(v.supports(models::buildModel("dlrm", 4096)));
}

TEST(Vdnn, RunReportsNotSupportedForTransformers)
{
    torch::Tape tape = models::buildModel("bert-large", 8);
    SwapResult r =
        runBaseline(BaselineKind::Vdnn, tape, smallConfig());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.reason, "model not supported");
}

TEST(Vdnn, OffloadsOnlyActivations)
{
    torch::Tape tape = models::buildModel("resnet152", 64);
    UseOracle oracle(tape);
    gpu::TimingConfig timing;
    VdnnPolicy v;
    v.plan(PlanContext{tape, oracle, timing, 256 * sim::kMiB,
                       4 * sim::kGiB});
    for (torch::TensorId t = 0;
         t < static_cast<torch::TensorId>(tape.tensors.size()); ++t) {
        bool act =
            tape.tensors[t].kind == torch::TensorKind::Activation;
        EXPECT_EQ(v.offloadable(t), act);
        EXPECT_EQ(v.mustStayResident(t), !act);
    }
}

TEST(AutoTm, PinsHotTensorsWithinBudget)
{
    torch::Tape tape = models::buildModel("bert-large", 8);
    UseOracle oracle(tape);
    gpu::TimingConfig timing;
    AutoTmPolicy p;
    std::uint64_t capacity = 256 * sim::kMiB;
    p.plan(PlanContext{tape, oracle, timing, capacity, 4 * sim::kGiB});
    std::uint64_t pinned = 0;
    for (torch::TensorId t = 0;
         t < static_cast<torch::TensorId>(tape.tensors.size()); ++t)
        if (p.mustStayResident(t))
            pinned += tape.tensors[t].bytes;
    EXPECT_GT(pinned, 0u);
    EXPECT_LE(pinned, capacity / 2);
}

TEST(Capuchin, RecomputeChosenIffCheaperThanSwap)
{
    // Hand-built tape: one cheap-to-recompute activation, one
    // expensive one, and a weight (never recomputed).
    torch::Tape tape;
    tape.modelName = "synthetic";
    tape.tensors = {
        {"w", 8 * sim::kMiB, torch::TensorKind::Weight},
        {"cheap_act", 8 * sim::kMiB, torch::TensorKind::Activation},
        {"costly_act", 8 * sim::kMiB, torch::TensorKind::Activation},
    };
    torch::TapeOp cheap;
    cheap.name = "cheap_producer";
    cheap.computeNs = 10 * sim::kUsec; // << PCIe round trip
    cheap.uses = {{0, false}, {1, true}};
    torch::TapeOp costly;
    costly.name = "costly_producer";
    costly.computeNs = 50 * sim::kMsec; // >> PCIe round trip
    costly.uses = {{0, false}, {2, true}};
    tape.ops = {cheap, costly};
    tape.iteration = {
        {torch::StepKind::Alloc, 1, -1},
        {torch::StepKind::Alloc, 2, -1},
        {torch::StepKind::Launch, torch::kNoTensor, 0},
        {torch::StepKind::Launch, torch::kNoTensor, 1},
        {torch::StepKind::Free, 1, -1},
        {torch::StepKind::Free, 2, -1},
    };
    tape.prologue = {{torch::StepKind::Alloc, 0, -1}};

    UseOracle oracle(tape);
    gpu::TimingConfig timing;
    CapuchinPolicy p;
    p.plan(PlanContext{tape, oracle, timing, 256 * sim::kMiB,
                       4 * sim::kGiB});
    EXPECT_EQ(p.recomputeCount(), 1u);
    EXPECT_FALSE(p.dropOnEvict(0)); // weights are never recomputed
    EXPECT_TRUE(p.dropOnEvict(1));
    EXPECT_GT(p.reloadComputeCost(1), 0u);
    EXPECT_FALSE(p.dropOnEvict(2));
}

TEST(Sentinel, PinsHotDataOnly)
{
    torch::Tape tape = models::buildModel("bert-large", 8);
    UseOracle oracle(tape);
    gpu::TimingConfig timing;
    SentinelPolicy p;
    p.plan(PlanContext{tape, oracle, timing, 256 * sim::kMiB,
                       4 * sim::kGiB});
    EXPECT_GT(p.hotCount(), 0u);
    // Single-use (cold) tensors are never pinned.
    for (torch::TensorId t = 0;
         t < static_cast<torch::TensorId>(tape.tensors.size()); ++t) {
        if (oracle.useCount(t) < 2) {
            EXPECT_FALSE(p.mustStayResident(t));
        }
    }
}

TEST(SwapAdvisor, GaRunsAndProducesFeasiblePlan)
{
    torch::Tape tape = models::buildModel("mobilenet", 1024);
    SwapConfig cfg = smallConfig();
    SwapAdvisorPolicy p(42);
    SwapResult r = runSwapBaseline(tape, p, cfg);
    ASSERT_TRUE(r.ok) << r.reason;
    EXPECT_GT(p.generationsRun(), 0u);
}

TEST(SwapAdvisor, SearchIsSeededDeterministic)
{
    torch::Tape tape = models::buildModel("mobilenet", 1024);
    SwapConfig cfg = smallConfig();
    SwapAdvisorPolicy p1(7), p2(7);
    SwapResult a = runSwapBaseline(tape, p1, cfg);
    SwapResult b = runSwapBaseline(tape, p2, cfg);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.ticksPerIter, b.ticksPerIter);
}

TEST(Runner, NamesAndFactoryAgree)
{
    for (BaselineKind k : allBaselines()) {
        auto p = makePolicy(k);
        EXPECT_STREQ(p->name(), baselineName(k));
    }
}

TEST(Runner, MaxBatchMonotonicSemantics)
{
    SwapConfig cfg = smallConfig();
    std::uint64_t mb =
        maxBatchBaseline(BaselineKind::Sentinel, "mobilenet", cfg, 64,
                         1 << 20);
    ASSERT_GT(mb, 64u);
    // The reported max batch runs; ~1.5x of it must not.
    torch::Tape ok_tape = models::buildModel("mobilenet", mb);
    auto pol = makePolicy(BaselineKind::Sentinel);
    SwapConfig quick = cfg;
    quick.iterations = 3;
    quick.warmup = 1;
    EXPECT_TRUE(runSwapBaseline(ok_tape, *pol, quick).ok);
    torch::Tape bad_tape =
        models::buildModel("mobilenet", mb + mb / 2);
    auto pol2 = makePolicy(BaselineKind::Sentinel);
    EXPECT_FALSE(runSwapBaseline(bad_tape, *pol2, quick).ok);
}

TEST(Runner, UnsupportedModelMaxBatchIsZero)
{
    SwapConfig cfg = smallConfig();
    EXPECT_EQ(maxBatchBaseline(BaselineKind::Vdnn, "bert-large", cfg,
                               1, 4096),
              0u);
}

} // namespace
