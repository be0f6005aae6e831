/**
 * @file
 * google-benchmark microbenchmarks of the hot data structures on the
 * fault path: correlation-table record/lookup, execution ID hashing,
 * the SPSC queues, and driver residency checks — the operations the
 * paper argues are cheap enough to hide in fault handling — plus the
 * simulator's own hot core: event-queue push/pop and the
 * EventFn callable vs std::function — and the block-metadata
 * structures: the dense BlockStore probe, its intrusive LRU, and the
 * driver's fault and prefetch queue drains.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/exec_correlation_table.hh"
#include "core/execution_id_table.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/spsc_queue.hh"
#include "uvm/block_store.hh"
#include "uvm/driver.hh"

using namespace deepum;
using namespace deepum::core;

namespace {

void
BM_BlockTableRecord(benchmark::State &state)
{
    BlockTableConfig cfg;
    cfg.numRows = static_cast<std::uint32_t>(state.range(0));
    BlockCorrelationTable t(cfg);
    sim::Rng rng(1);
    for (auto _ : state) {
        mem::BlockId a = rng.below(4096), b = rng.below(4096);
        t.record(a, b);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockTableRecord)->Arg(128)->Arg(2048)->Arg(4096);

void
BM_BlockTableLookup(benchmark::State &state)
{
    BlockTableConfig cfg;
    cfg.numRows = static_cast<std::uint32_t>(state.range(0));
    BlockCorrelationTable t(cfg);
    sim::Rng fill(2);
    for (int i = 0; i < 4096; ++i)
        t.record(fill.below(4096), fill.below(4096));
    sim::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.successors(rng.below(4096)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockTableLookup)->Arg(128)->Arg(2048);

void
BM_ExecTablePredict(benchmark::State &state)
{
    ExecCorrelationTable t;
    for (ExecId i = 0; i < 512; ++i)
        t.record(i, ExecHistory{i, i + 1, i + 2}, i + 3);
    sim::Rng rng(4);
    for (auto _ : state) {
        ExecId c = static_cast<ExecId>(rng.below(512));
        benchmark::DoNotOptimize(
            t.predict(c, ExecHistory{c, c + 1, c + 2}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecTablePredict);

/**
 * The steady-state correlation hot path as the correlator drives it:
 * a duplicate record (MRU refresh, the common case once a kernel's
 * pattern is learned) followed by a successor lookup. With the dense
 * slab layout both halves are pointer arithmetic with zero heap
 * traffic.
 */
void
BM_CorrelationRecord(benchmark::State &state)
{
    BlockTableConfig cfg;
    cfg.numRows = static_cast<std::uint32_t>(state.range(0));
    BlockCorrelationTable t(cfg);
    // Learn a stride-1 fault pattern once; the timed loop replays it.
    constexpr mem::BlockId kBlocks = 2048;
    for (mem::BlockId b = 0; b < kBlocks; ++b)
        t.record(b, (b + 1) % kBlocks);
    mem::BlockId b = 0;
    const std::uint64_t replBefore = t.replacements();
    for (auto _ : state) {
        t.record(b, (b + 1) % kBlocks);
        benchmark::DoNotOptimize(t.successors(b));
        b = (b + 1) % kBlocks;
    }
    state.SetItemsProcessed(state.iterations());
    // Set-conflict rate: LRU way replacements per record. ~0 when
    // rows*assoc holds the 2048-block ring, ~1 when it cannot — the
    // mechanism behind /4096 beating /128 (see EXPERIMENTS.md).
    state.counters["conflicts_per_record"] = benchmark::Counter(
        static_cast<double>(t.replacements() - replBefore) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CorrelationRecord)->Arg(128)->Arg(2048)->Arg(4096);

/**
 * The prefetcher's chain walk over a learned table: pop a block,
 * iterate its successor view, follow the MRU edge. Measures the
 * per-edge cost of the slab-backed successors() that the fault-path
 * chain walk pays per issued prefetch.
 */
void
BM_ChainWalk(benchmark::State &state)
{
    BlockTableConfig cfg;
    cfg.numRows = 2048;
    BlockCorrelationTable t(cfg);
    constexpr mem::BlockId kBlocks = 2048;
    // A ring with a few extra edges so views hold >1 successor.
    for (mem::BlockId b = 0; b < kBlocks; ++b) {
        t.record(b, (b + 2) % kBlocks);
        t.record(b, (b + 1) % kBlocks);
    }
    mem::BlockId cur = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        SuccView s = t.successors(cur);
        for (mem::BlockId n : s)
            sum += n;
        cur = s.empty() ? 0 : s.front();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainWalk);

void
BM_ExecutionIdHash(benchmark::State &state)
{
    gpu::KernelInfo k;
    k.name = "volta_sgemm_128x64_tn";
    k.argHash = 0x1234abcd;
    for (auto _ : state)
        benchmark::DoNotOptimize(ExecutionIdTable::hashKernel(k));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutionIdHash);

void
BM_SpscQueueRoundTrip(benchmark::State &state)
{
    sim::SpscQueue<std::uint64_t> q(1024);
    std::uint64_t v = 0;
    for (auto _ : state) {
        q.push(v);
        std::uint64_t out = 0;
        q.pop(out);
        benchmark::DoNotOptimize(out);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueueRoundTrip);

/**
 * A mixed delay ring: 10% zero-delay, 70% short (up to 2000 ticks),
 * 20% long (10k-210k ticks).
 */
std::vector<sim::Tick>
mixedDelays()
{
    std::vector<sim::Tick> delays(1024);
    sim::Rng rng(42);
    for (auto &d : delays) {
        std::uint64_t r = rng.below(100);
        if (r < 10)
            d = 0;
        else if (r < 80)
            d = 1 + rng.below(2000);
        else
            d = 10'000 + rng.below(200'000);
    }
    return delays;
}

/**
 * Steady-state event-queue push+pop: one event scheduled and one
 * executed per iteration over a standing population of 2 events,
 * the most any benchmark workload ever holds pending (EXPERIMENTS.md,
 * "Event-queue depth and fault-batch size").
 */
void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    sim::EventQueue eq;
    const auto delays = mixedDelays();
    std::uint64_t sink = 0, n = 0;
    for (std::uint64_t i = 0; i < 2; ++i)
        eq.scheduleIn(delays[i & 1023], [&sink] { ++sink; });
    for (auto _ : state) {
        eq.scheduleIn(delays[++n & 1023], [&sink] { ++sink; });
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleStep);

// The event-callable comparison, on the largest capture an EventFn
// takes: two words.

void
BM_EventFnConstructInvoke(benchmark::State &state)
{
    std::uint64_t a = 1, b = 2;
    for (auto _ : state) {
        sim::EventFn fn([pa = &a, pb = &b] { *pa += *pb; });
        benchmark::DoNotOptimize(fn);
        fn();
    }
    benchmark::DoNotOptimize(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventFnConstructInvoke);

void
BM_StdFunctionConstructInvoke(benchmark::State &state)
{
    std::uint64_t a = 1, b = 2;
    for (auto _ : state) {
        std::function<void()> fn([pa = &a, pb = &b] { *pa += *pb; });
        benchmark::DoNotOptimize(fn);
        fn();
    }
    benchmark::DoNotOptimize(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionConstructInvoke);

// Block-metadata lookups. The driver probes per fault-buffer entry,
// per residency check, and per LRU step; state.range(0) is the
// number of ranges registered with the store (an allocation-heavy
// net has many, a toy test has one).

/** Deterministic block addresses spread over @p ranges runs. */
std::vector<mem::BlockId>
blockAddrs(std::uint64_t ranges, std::uint64_t perRange)
{
    std::vector<mem::BlockId> addrs(8192);
    sim::Rng rng(11);
    for (auto &a : addrs) {
        std::uint64_t pick = rng.below(ranges * perRange);
        a = mem::blockOf(mem::kUmBase) + (pick / perRange) * 4 * perRange +
            pick % perRange;
    }
    return addrs;
}

void
BM_BlockStoreProbe(benchmark::State &state)
{
    const std::uint64_t ranges = state.range(0), per = 512;
    uvm::BlockStore store;
    for (std::uint64_t r = 0; r < ranges; ++r) {
        mem::BlockId base = mem::blockOf(mem::kUmBase) + r * 4 * per;
        store.registerRun(base, base + per);
    }
    const auto addrs = blockAddrs(ranges, per);
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.find(addrs[++n & 8191]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStoreProbe)->Arg(1)->Arg(8)->Arg(64);

// LRU requeue (a migration completing moves its block to the back):
// two index writes in records the probe already touched.

void
BM_IntrusiveLruRequeue(benchmark::State &state)
{
    const std::uint64_t per = 4096;
    uvm::BlockStore store;
    mem::BlockId base = mem::blockOf(mem::kUmBase);
    uvm::BlockIndex first = store.registerRun(base, base + per);
    for (std::uint64_t j = 0; j < per; ++j)
        store.lruPushBack(first + static_cast<uvm::BlockIndex>(j));
    sim::Rng rng(12);
    for (auto _ : state) {
        uvm::BlockIndex i =
            first + static_cast<uvm::BlockIndex>(rng.below(per));
        store.lruErase(i);
        store.lruPushBack(i);
    }
    benchmark::DoNotOptimize(store.lruTail());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntrusiveLruRequeue);

// --------------------------------------------------------------------
// Fault-servicing queues
// --------------------------------------------------------------------

/**
 * Burst-drain of the driver's demand-fault queue: handleFaults
 * pushes one MigrateCmd per deduped block, migrationStep pops them
 * one PCIe transfer at a time. Arg = burst size (blocks per fault
 * batch); the pop side re-probes the BlockStore and flips the
 * queuedFault flag, as migrationStep does.
 */
void
BM_FaultQueueDrain(benchmark::State &state)
{
    const std::uint64_t burst = static_cast<std::uint64_t>(state.range(0));
    sim::SpscQueue<uvm::MigrateCmd> q(1024);
    uvm::BlockStore store;
    constexpr mem::BlockId kB0 = mem::blockOf(mem::kUmBase);
    store.registerRun(kB0, kB0 + 512);
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < burst; ++i) {
            store.at(store.find(kB0 + i)).queuedFault = true;
            q.push(uvm::MigrateCmd{kB0 + i, 0, 0});
        }
        uvm::MigrateCmd cmd;
        while (q.pop(cmd)) {
            auto &bi = store.at(store.find(cmd.block));
            bi.queuedFault = false;
            benchmark::DoNotOptimize(bi.pages);
        }
    }
    state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_FaultQueueDrain)->Arg(8)->Arg(64)->Arg(256);

/**
 * The prefetch queue's drain differs from the fault queue's: each
 * pop carries the predicted consumer and chain depth, and the
 * consumer check (still-pending execution?) runs before any
 * transfer is issued. Modeled here as a depth-tagged pop plus a
 * branch on the flag, the shape of Driver::migrationStep's
 * prefetch arm.
 */
void
BM_PrefetchQueueDrain(benchmark::State &state)
{
    const std::uint64_t burst = static_cast<std::uint64_t>(state.range(0));
    sim::SpscQueue<uvm::MigrateCmd> q(1024);
    uvm::BlockStore store;
    constexpr mem::BlockId kB0 = mem::blockOf(mem::kUmBase);
    store.registerRun(kB0, kB0 + 512);
    std::uint64_t stale = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < burst; ++i)
            q.push(uvm::MigrateCmd{
                kB0 + i, static_cast<std::uint32_t>(i & 7),
                static_cast<std::uint32_t>(i & 3)});
        uvm::MigrateCmd cmd;
        while (q.pop(cmd)) {
            auto &bi = store.at(store.find(cmd.block));
            // A stale prefetch (block already resident) is dropped.
            if (bi.queuedPrefetch || cmd.depth > 2)
                ++stale;
            benchmark::DoNotOptimize(bi.pages);
        }
    }
    benchmark::DoNotOptimize(stale);
    state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_PrefetchQueueDrain)->Arg(8)->Arg(64)->Arg(256);

} // namespace
