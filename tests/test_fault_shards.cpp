/**
 * @file
 * Sharded fault servicing (uvm/fault_shards.hh, sim/shard_workers.hh):
 * the worker team's fork/join contract, shard-partition property
 * tests of preprocess/recordBatch against the sequential reference,
 * the quiescent-pool audit, the dropped-block re-probe fix, and the
 * headline determinism gate — byte-identical
 * StatSet::dumpJson on the correlation-heavy scenario at 1 vs. N
 * service threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/config.hh"
#include "core/deepum.hh"
#include "core/execution_id_table.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/shard_workers.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "uvm/driver.hh"
#include "uvm/fault_shards.hh"

using namespace deepum;
using namespace deepum::uvm;

namespace {

// --------------------------------------------------------------------
// ShardWorkers: the fork/join primitive
// --------------------------------------------------------------------

struct SumCtx {
    std::atomic<std::uint64_t> total{0};
    unsigned sawShards = 0;
};

void
sumJob(void *ctx, unsigned shard, unsigned nshards)
{
    auto *c = static_cast<SumCtx *>(ctx);
    c->total.fetch_add(shard + 1, std::memory_order_relaxed);
    if (shard == 0)
        c->sawShards = nshards;
}

TEST(ShardWorkers, RunsEveryShardOnceAndJoins)
{
    sim::ShardWorkers team(4);
    EXPECT_EQ(team.count(), 4u);
    SumCtx c;
    team.run(&sumJob, &c);
    // 1+2+3+4: each shard ran exactly once before run() returned.
    EXPECT_EQ(c.total.load(), 10u);
    EXPECT_EQ(c.sawShards, 4u);
    // Back-to-back dispatches reuse the same generation protocol.
    team.run(&sumJob, &c);
    team.run(&sumJob, &c);
    EXPECT_EQ(c.total.load(), 30u);
}

TEST(ShardWorkers, SingleShardRunsInline)
{
    sim::ShardWorkers team(1);
    SumCtx c;
    team.run(&sumJob, &c);
    EXPECT_EQ(c.total.load(), 1u);
    EXPECT_EQ(c.sawShards, 1u);
}

TEST(ShardWorkers, ResizeRebuildsTheTeam)
{
    sim::ShardWorkers team(2);
    SumCtx c;
    team.run(&sumJob, &c);
    EXPECT_EQ(c.total.load(), 3u);
    team.resize(3);
    SumCtx c2;
    team.run(&sumJob, &c2);
    EXPECT_EQ(c2.total.load(), 6u);
    team.resize(0); // clamps to 1
    EXPECT_EQ(team.count(), 1u);
}

// --------------------------------------------------------------------
// FaultShardPool::preprocess vs. the sequential reference
// --------------------------------------------------------------------

constexpr mem::BlockId kBase = mem::blockOf(mem::kUmBase);

/** Populate three disjoint runs (slab indices get reshuffled). */
void
fillStore(BlockStore &st)
{
    st.registerRun(kBase, kBase + 64);
    st.registerRun(kBase + 100, kBase + 228);
    st.registerRun(kBase + 300, kBase + 364);
}

std::vector<gpu::FaultEntry>
randomBatch(sim::Rng &rng, std::size_t n)
{
    // Bursty duplicates over all three runs, like a real drain.
    std::vector<gpu::FaultEntry> entries;
    const mem::BlockId starts[] = {kBase, kBase + 100, kBase + 300};
    const std::uint64_t lens[] = {64, 128, 64};
    while (entries.size() < n) {
        std::uint64_t r = rng.below(3);
        mem::BlockId b = starts[r] + rng.below(lens[r]);
        std::uint64_t burst = 1 + rng.below(4);
        for (std::uint64_t k = 0; k < burst && entries.size() < n; ++k)
            entries.push_back(gpu::FaultEntry{
                b, static_cast<std::uint32_t>(1 + rng.below(512)),
                false, 0});
    }
    return entries;
}

TEST(FaultShardPool, PreprocessMatchesSequentialReference)
{
    BlockStore st;
    fillStore(st);
    FaultShardPool serial(1);
    FaultShardPool sharded(4);
    std::vector<std::uint64_t> seen1(st.slabSize(), 0);
    std::vector<std::uint64_t> seen4(st.slabSize(), 0);
    std::vector<mem::BlockId> ord1, ord4;
    sim::Rng rng(42);

    // Many epochs through the same pools: exercises scratch reuse
    // and the epoch-stamp dedupe across batches.
    for (std::uint64_t epoch = 1; epoch <= 24; ++epoch) {
        auto entries = randomBatch(rng, 64 + rng.below(512));
        std::uint64_t pages1 = 0, pages4 = 0;
        serial.preprocess(entries, st, seen1, epoch, ord1, pages1);
        sharded.preprocess(entries, st, seen4, epoch, ord4, pages4);
        ASSERT_EQ(ord1, ord4) << "epoch " << epoch;
        ASSERT_EQ(pages1, pages4) << "epoch " << epoch;
        // First-fault order sanity: no duplicates in the output.
        std::vector<mem::BlockId> sorted = ord1;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end());
    }
    // Stamp arrays agree entirely (same dedupe decisions observed).
    EXPECT_EQ(seen1, seen4);
}

TEST(FaultShardPool, SmallBatchesTakeTheSerialPath)
{
    BlockStore st;
    fillStore(st);
    FaultShardPool sharded(4);
    std::vector<std::uint64_t> seen(st.slabSize(), 0);
    std::vector<mem::BlockId> ord;
    std::uint64_t pages = 0;
    std::vector<gpu::FaultEntry> entries{
        {kBase + 1, 512, false, 0},
        {kBase + 2, 512, false, 0},
        {kBase + 1, 512, false, 0},
    };
    sharded.preprocess(entries, st, seen, 1, ord, pages);
    EXPECT_EQ(ord, (std::vector<mem::BlockId>{kBase + 1, kBase + 2}));
    EXPECT_EQ(pages, 3u * 512u);
}

TEST(FaultShardPoolDeath, SerialPreprocessPanicsOnUnknownBlock)
{
    BlockStore st;
    fillStore(st);
    FaultShardPool pool(1); // one shard: no threads, fork-safe
    std::vector<std::uint64_t> seen(st.slabSize(), 0);
    std::vector<mem::BlockId> ord;
    std::uint64_t pages = 0;
    std::vector<gpu::FaultEntry> entries{
        {kBase + 1, 512, false, 0},
        {kBase + 999, 512, false, 0},
    };
    EXPECT_DEATH(pool.preprocess(entries, st, seen, 1, ord, pages),
                 "unregistered block");
}

TEST(FaultShardPoolDeath, ShardedPreprocessPanicsOnUnknownBlock)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BlockStore st;
    fillStore(st);
    // The pool lives inside the death statement so the forked child
    // spawns its own worker threads.
    EXPECT_DEATH(
        {
            FaultShardPool pool(4);
            std::vector<std::uint64_t> seen(st.slabSize(), 0);
            std::vector<mem::BlockId> ord;
            std::uint64_t pages = 0;
            std::vector<gpu::FaultEntry> entries;
            for (int i = 0; i < 100; ++i)
                entries.push_back(
                    gpu::FaultEntry{kBase + (i % 60), 512, false, 0});
            entries[70].block = kBase + 999; // not registered
            pool.preprocess(entries, st, seen, 1, ord, pages);
        },
        "unregistered block");
}

// --------------------------------------------------------------------
// Per-shard list audits (DEEPUM_VALIDATE surface)
// --------------------------------------------------------------------

TEST(FaultShardPool, QuiescentPoolPassesAudit)
{
    BlockStore st;
    fillStore(st);
    FaultShardPool pool(4);
    std::vector<std::uint64_t> seen(st.slabSize(), 0);
    std::vector<mem::BlockId> ord;
    std::uint64_t pages = 0;
    sim::Rng rng(7);
    auto entries = randomBatch(rng, 256);
    pool.preprocess(entries, st, seen, 1, ord, pages);

    sim::CheckContext ctx("FaultShardPool", "test", {});
    pool.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

// --------------------------------------------------------------------
// Correlation-table sharded paths vs. the sequential reference
// --------------------------------------------------------------------

std::string
tableDump(const core::BlockCorrelationTable &t)
{
    std::ostringstream os;
    t.dumpState(os);
    return os.str();
}

TEST(CorrelationShards, RecordBatchMatchesSequentialReference)
{
    core::BlockTableConfig cfg; // default geometry: 2048 x 2
    core::BlockCorrelationTable serial(cfg), sharded(cfg);
    FaultShardPool pool(4);
    sim::Rng rng(99);

    for (int batch = 0; batch < 12; ++batch) {
        std::vector<core::RecordPair> pairs;
        mem::BlockId prev = kBase + rng.below(512);
        std::size_t n = 64 + rng.below(256);
        for (std::size_t i = 0; i < n; ++i) {
            mem::BlockId next = kBase + rng.below(512);
            if (next != prev)
                pairs.push_back(core::RecordPair{prev, next});
            prev = next;
        }
        for (const auto &p : pairs)
            serial.record(p.prev, p.next);
        sharded.recordBatch(pairs.data(), pairs.size(), &pool);
        // Byte-identical table state: tags, lastUse clocks, MRU
        // successor windows — everything the dump streams.
        ASSERT_EQ(tableDump(serial), tableDump(sharded))
            << "batch " << batch;
    }

    sim::CheckContext ctx("BlockCorrelationTable", "test", {});
    sharded.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

TEST(CorrelationShards, RecordShardPartitionsEverySet)
{
    core::BlockTableConfig cfg;
    core::BlockCorrelationTable t(cfg);
    for (mem::BlockId b = kBase; b < kBase + 4096; ++b) {
        unsigned s = t.recordShard(b, 4);
        EXPECT_LT(s, 4u);
        // The owner is stable — the partition is a pure function.
        EXPECT_EQ(s, t.recordShard(b, 4));
    }
}

// --------------------------------------------------------------------
// Driver integration
// --------------------------------------------------------------------

constexpr std::uint64_t kGpuBlocks = 4;

struct World {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpuBlocks * mem::kPagesPerBlock};
    Driver drv{eq, cfg, fb, link, frames, stats};
};

TEST(DriverShards, DroppedBlockBetweenDrainAndDispatchIsSkipped)
{
    // The re-probe comment in handleFaults promises a freed block is
    // survivable; this pins the skip (it used to panic).
    World w;
    w.drv.registerRange(mem::kUmBase, 2 * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    w.fb.push(gpu::FaultEntry{b0, 512, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 1, 512, false, 0});
    w.drv.faultInterrupt();
    // Drain happens at faultInterruptLatency; dispatch at least
    // faultPreprocessBase later. Free the range in between.
    w.eq.schedule(w.cfg.faultInterruptLatency + 1, [&] {
        w.drv.unregisterRange(mem::kUmBase, 2 * mem::kBlockBytes);
    });
    w.eq.run();
    EXPECT_EQ(w.stats.get("uvm.faultedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 0u);
    EXPECT_FALSE(w.drv.knowsBlock(b0));
}

// --------------------------------------------------------------------
// Headline gate: byte-identical stats on the corr scenario, 1 vs. N
// --------------------------------------------------------------------

/**
 * A compact version of bench/fault_path's correlation-heavy leg: an
 * oversubscribed sliding window with the full DeepUM machinery and a
 * repeating kernel sequence, with smBatch raised so fault batches
 * clear the pool's parallel threshold. Returns the full stat dump.
 */
std::string
corrScenarioStats(unsigned serviceThreads)
{
    constexpr std::uint64_t kTotal = 256;
    constexpr std::uint64_t kGpu = 96;
    constexpr std::uint64_t kKernels = 48;

    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    cfg.smBatch = 128;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpu * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    Driver drv{eq, cfg, fb, link, frames, stats};
    drv.setServiceThreads(serviceThreads);
    engine.setBackend(&drv);
    drv.setEngine(&engine);
    core::DeepUmConfig dcfg;
    core::DeepUm dum{drv, dcfg, stats};
    core::ExecutionIdTable execIds;

    drv.registerRange(mem::kUmBase, kTotal * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo kernel;
    kernel.computeNs = 10 * sim::kUsec;
    std::uint64_t stride = kGpu / 2;
    std::uint64_t perIter = (kTotal + stride - 1) / stride;
    for (std::uint64_t i = 0; i < kKernels; ++i) {
        std::uint64_t k = i % perIter;
        kernel.name = "corr_k" + std::to_string(k);
        kernel.argHash = k;
        kernel.accesses.clear();
        for (std::uint64_t j = 0; j < kGpu; ++j)
            kernel.accesses.push_back(gpu::BlockAccess{
                b0 + (k * stride + j) % kTotal,
                static_cast<std::uint32_t>(mem::kPagesPerBlock),
                false});
        dum.notifyKernelLaunch(execIds.lookupOrAssign(kernel));
        bool done = false;
        engine.launch(&kernel, [&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
    }

    std::ostringstream os;
    stats.dumpJson(os);
    return os.str();
}

TEST(DriverShards, CorrScenarioStatsByteIdenticalAcrossThreadCounts)
{
    std::string t1 = corrScenarioStats(1);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, corrScenarioStats(2));
    EXPECT_EQ(t1, corrScenarioStats(4));
}

} // namespace
