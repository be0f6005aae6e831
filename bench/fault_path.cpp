/**
 * @file
 * Fault-path throughput benchmark.
 *
 * Three measurements:
 *
 *  1. End-to-end: a bare Driver + GpuEngine stack runs a sliding
 *     window of kernels over more blocks than the GPU holds, so every
 *     kernel faults, migrates, and evicts. Reports simulated page
 *     faults handled per wall-clock second — the number the dense
 *     BlockStore rewrite targets (the whole Figure-3 pipeline probes
 *     block metadata on every drain, dedupe, evict, and map step).
 *
 *  2. Correlation-heavy end-to-end: the same oversubscribed stack
 *     with the full DeepUM machinery attached and a *repeating*
 *     kernel sequence, so the correlator records successor pairs on
 *     every fault batch and the prefetcher chain-walks the block
 *     correlation tables continuously — the workload the dense
 *     correlation-engine rewrite targets. Uses only the stable DeepUm
 *     facade, so the same source builds against the pre-rewrite core
 *     to take the baseline.
 *
 *  3. Store-vs-map A/B: the same mixed probe/LRU-touch/flag-flip op
 *     sequence replayed against the production uvm::BlockStore and
 *     against the pre-rewrite bookkeeping (std::unordered_map records
 *     + std::list LRU + a BlockId->iterator side map), with a
 *     checksum proving both sides observe identical state. This leg
 *     compiles only in trees that have uvm/block_store.hh, so the
 *     same source file builds against the pre-rewrite tree to take
 *     the end-to-end baseline.
 *
 * --json writes machine-readable perf numbers (plus host_cores: the
 * figures are wall-clock and meaningless to compare across machines
 * without it). --stats-json dumps the end-to-end run's StatSet; the
 * run is deterministic, so CI runs the benchmark twice and requires
 * the two dumps to be byte-identical.
 *
 * Usage:
 *   fault_path [--kernels N] [--blocks N] [--gpu-blocks N]
 *              [--corr-kernels N] [--micro-ops N] [--json file]
 *              [--stats-json file] [--corr-stats-json file]
 *              [--sm-batch N]
 *
 * --sm-batch sets the modelled SM fault-batch ceiling (0 keeps the
 * TimingConfig default). Every number must be an unsigned decimal
 * integer that fits its field; anything else exits 2 naming the flag.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <list>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/common.hh"
#include "core/deepum.hh"
#include "core/execution_id_table.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "support/parse_num.hh"
#include "uvm/driver.hh"

#if __has_include("uvm/block_store.hh")
#include "uvm/block_store.hh"
#define FAULT_PATH_HAVE_BLOCK_STORE 1
#endif

using namespace deepum;
using namespace deepum::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** End-to-end result: faults/sec through the full pipeline. */
struct EndToEnd {
    std::uint64_t pageFaults = 0;
    std::uint64_t evictedBlocks = 0;
    std::uint64_t kernels = 0;
    sim::Tick simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    double wallSec = 0;
    double faultsPerSec = 0;
};

/**
 * Drive @p kernels kernels over @p totalBlocks registered blocks on a
 * @p gpuBlocks-block GPU. Kernel i touches the @p gpuBlocks-wide
 * window starting at i * gpuBlocks/2 (mod totalBlocks): half of every
 * window is new, so the steady state is continuous faulting with an
 * eviction per migration — the worst-case Figure-3 load.
 */
EndToEnd
runEndToEnd(std::uint64_t kernels, std::uint64_t totalBlocks,
            std::uint64_t gpuBlocks, const std::string &statsJson,
            unsigned smBatch)
{
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    cfg.smBatch = smBatch;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{gpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    engine.setBackend(&drv);
    drv.setEngine(&engine);

    drv.registerRange(mem::kUmBase, totalBlocks * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo kernel;
    kernel.name = "fault_path";
    kernel.computeNs = 10 * sim::kUsec;

    std::uint64_t stride = gpuBlocks / 2 ? gpuBlocks / 2 : 1;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kernels; ++i) {
        kernel.accesses.clear();
        for (std::uint64_t j = 0; j < gpuBlocks; ++j)
            kernel.accesses.push_back(gpu::BlockAccess{
                b0 + (i * stride + j) % totalBlocks,
                static_cast<std::uint32_t>(mem::kPagesPerBlock),
                false});
        bool done = false;
        engine.launch(&kernel, [&] { done = true; });
        eq.run();
        if (!done) {
            std::fprintf(stderr, "error: kernel %llu never retired\n",
                         static_cast<unsigned long long>(i));
            std::exit(1);
        }
    }

    EndToEnd r;
    r.wallSec = secondsSince(t0);
    r.pageFaults = stats.get("uvm.pageFaults");
    r.evictedBlocks = stats.get("uvm.evictedBlocks");
    r.kernels = kernels;
    r.simTicks = eq.now();
    r.eventsExecuted = eq.executed();
    r.faultsPerSec = r.wallSec > 0
                         ? static_cast<double>(r.pageFaults) / r.wallSec
                         : 0.0;
    if (!statsJson.empty()) {
        std::ofstream os(statsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         statsJson.c_str());
            std::exit(1);
        }
        stats.dumpJson(os);
    }
    return r;
}

/** Correlation-heavy result: the DeepUM engine on the hot path. */
struct CorrHeavy {
    std::uint64_t pageFaults = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t blocksIssued = 0;
    std::uint64_t chainsStarted = 0;
    std::uint64_t kernels = 0;
    sim::Tick simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    double wallSec = 0;
    double faultsPerSec = 0;
};

/**
 * The same oversubscribed sliding-window load as runEndToEnd, but
 * with DeepUM attached and the window sequence repeating every
 * iteration: the execution ID stream loops, so after the first
 * iteration every fault batch drives record() into a learned block
 * table and restarts a chain walk that prefetches kernels ahead.
 * Steady state keeps all three correlation-engine hot paths busy at
 * once — record (correlator), successors + exec predict (chain
 * walk), and the protection bookkeeping (eviction policy).
 */
CorrHeavy
runCorrHeavy(std::uint64_t kernels, std::uint64_t totalBlocks,
             std::uint64_t gpuBlocks, const std::string &statsJson,
             unsigned smBatch)
{
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    cfg.smBatch = smBatch;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{gpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    engine.setBackend(&drv);
    drv.setEngine(&engine);
    core::DeepUmConfig dcfg;
    core::DeepUm dum{drv, dcfg, stats};
    core::ExecutionIdTable execIds;

    drv.registerRange(mem::kUmBase, totalBlocks * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo kernel;
    kernel.computeNs = 10 * sim::kUsec;

    // Distinct kernels per iteration: the window wraps totalBlocks in
    // stride steps, so the sequence (and the exec ID stream) repeats
    // exactly every perIter launches.
    std::uint64_t stride = gpuBlocks / 2 ? gpuBlocks / 2 : 1;
    std::uint64_t perIter = (totalBlocks + stride - 1) / stride;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kernels; ++i) {
        std::uint64_t k = i % perIter;
        kernel.name = "corr_k" + std::to_string(k);
        kernel.argHash = k;
        kernel.accesses.clear();
        for (std::uint64_t j = 0; j < gpuBlocks; ++j)
            kernel.accesses.push_back(gpu::BlockAccess{
                b0 + (k * stride + j) % totalBlocks,
                static_cast<std::uint32_t>(mem::kPagesPerBlock),
                false});
        dum.notifyKernelLaunch(execIds.lookupOrAssign(kernel));
        bool done = false;
        engine.launch(&kernel, [&] { done = true; });
        eq.run();
        if (!done) {
            std::fprintf(stderr,
                         "error: corr kernel %llu never retired\n",
                         static_cast<unsigned long long>(i));
            std::exit(1);
        }
    }

    CorrHeavy r;
    r.wallSec = secondsSince(t0);
    r.pageFaults = stats.get("uvm.pageFaults");
    r.prefetchIssued = stats.get("uvm.prefetchIssued");
    r.blocksIssued = stats.get("prefetcher.blocksIssued");
    r.chainsStarted = stats.get("prefetcher.chainsStarted");
    r.kernels = kernels;
    r.simTicks = eq.now();
    r.eventsExecuted = eq.executed();
    r.faultsPerSec = r.wallSec > 0
                         ? static_cast<double>(r.pageFaults) / r.wallSec
                         : 0.0;
    if (!statsJson.empty()) {
        std::ofstream os(statsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         statsJson.c_str());
            std::exit(1);
        }
        stats.dumpJson(os);
    }
    return r;
}

#ifdef FAULT_PATH_HAVE_BLOCK_STORE

/** A/B result: identical op streams on both structures. */
struct Micro {
    double storeOpsPerSec = 0;
    double mapOpsPerSec = 0;
    double speedup = 0;
    bool checksumMatch = false;
};

constexpr std::uint64_t kMicroRanges = 8;
constexpr std::uint64_t kMicroBlocksPerRange = 512;

/** Base block of micro range @p r (ranges deliberately disjoint). */
constexpr mem::BlockId
microRangeBase(std::uint64_t r)
{
    return mem::blockOf(mem::kUmBase) + r * 4 * kMicroBlocksPerRange;
}

/**
 * The op mix, mirroring the fault path: bursts of consecutive blocks
 * (a fault batch groups one kernel's window, so metadata probes are
 * highly local), each op 70% probe-and-read (drain dedupe, residency
 * checks), 15% LRU re-queue (migration completes), 15% probe-and-flip
 * (pin/unpin). Returns a state checksum.
 */
template <typename Probe, typename Touch, typename Flip>
std::uint64_t
runOps(std::uint64_t ops, Probe probe, Touch touch, Flip flip)
{
    constexpr std::uint64_t kBurst = 64;
    sim::Rng rng(7);
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < ops;) {
        mem::BlockId start =
            microRangeBase(rng.below(kMicroRanges)) +
            rng.below(kMicroBlocksPerRange - kBurst);
        for (std::uint64_t k = 0; k < kBurst && i < ops; ++k, ++i) {
            mem::BlockId b = start + k;
            std::uint64_t kind = rng.below(100);
            if (kind < 70)
                checksum += probe(b);
            else if (kind < 85)
                checksum += touch(b);
            else
                checksum += flip(b);
        }
    }
    return checksum;
}

Micro
runMicro(std::uint64_t ops)
{
    // Production structure: the dense BlockStore.
    uvm::BlockStore store;
    for (std::uint64_t r = 0; r < kMicroRanges; ++r) {
        uvm::BlockIndex base = store.registerRun(
            microRangeBase(r),
            microRangeBase(r) + kMicroBlocksPerRange);
        for (std::uint64_t j = 0; j < kMicroBlocksPerRange; ++j) {
            uvm::BlockIndex i =
                base + static_cast<uvm::BlockIndex>(j);
            store.at(i).loc = uvm::Loc::Device;
            store.lruPushBack(i);
        }
    }

    // Pre-rewrite structure: hash map + list LRU + iterator side map.
    std::unordered_map<mem::BlockId, uvm::BlockInfo> blocks;
    std::list<mem::BlockId> lru;
    std::unordered_map<mem::BlockId, std::list<mem::BlockId>::iterator>
        lruPos;
    for (std::uint64_t r = 0; r < kMicroRanges; ++r) {
        for (std::uint64_t j = 0; j < kMicroBlocksPerRange; ++j) {
            mem::BlockId b = microRangeBase(r) + j;
            blocks[b].loc = uvm::Loc::Device;
            lruPos[b] = lru.insert(lru.end(), b);
        }
    }

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t storeSum = runOps(
        ops,
        [&](mem::BlockId b) -> std::uint64_t {
            uvm::BlockIndex i = store.find(b);
            return static_cast<std::uint64_t>(store.at(i).loc) + b;
        },
        [&](mem::BlockId b) -> std::uint64_t {
            uvm::BlockIndex i = store.find(b);
            store.lruErase(i);
            store.lruPushBack(i);
            return store.idAt(store.lruTail());
        },
        [&](mem::BlockId b) -> std::uint64_t {
            uvm::BlockIndex i = store.find(b);
            store.at(i).pinned = !store.at(i).pinned;
            return store.at(i).pinned ? b : 0;
        });
    double storeSec = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    std::uint64_t mapSum = runOps(
        ops,
        [&](mem::BlockId b) -> std::uint64_t {
            return static_cast<std::uint64_t>(blocks.find(b)->second.loc) +
                   b;
        },
        [&](mem::BlockId b) -> std::uint64_t {
            auto it = lruPos.find(b);
            lru.erase(it->second);
            it->second = lru.insert(lru.end(), b);
            return lru.back();
        },
        [&](mem::BlockId b) -> std::uint64_t {
            auto &bi = blocks.find(b)->second;
            bi.pinned = !bi.pinned;
            return bi.pinned ? b : 0;
        });
    double mapSec = secondsSince(t0);

    Micro m;
    m.checksumMatch = storeSum == mapSum;
    m.storeOpsPerSec =
        storeSec > 0 ? static_cast<double>(ops) / storeSec : 0.0;
    m.mapOpsPerSec =
        mapSec > 0 ? static_cast<double>(ops) / mapSec : 0.0;
    m.speedup =
        m.mapOpsPerSec > 0 ? m.storeOpsPerSec / m.mapOpsPerSec : 0.0;
    return m;
}

#endif // FAULT_PATH_HAVE_BLOCK_STORE

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t kernels = 16384;
    std::uint64_t corrKernels = 2048;
    std::uint64_t totalBlocks = 1024;
    std::uint64_t gpuBlocks = 256;
    std::uint64_t microOps = 20'000'000;
    unsigned smBatch = 0; // 0 = the TimingConfig default
    std::string json, statsJson, corrStatsJson;

    constexpr std::uint64_t kMaxU64 =
        std::numeric_limits<std::uint64_t>::max();
    // The driver numbers blocks with a 32-bit uvm::BlockIndex; below
    // that bound the byte count (at most 2^53) cannot wrap either.
    constexpr std::uint64_t kMaxBlocks = uvm::kNoBlockIndex;
    // The value after flag argv[i] in [lo, hi]; exits 2 otherwise.
    auto num = [&](int &i, std::uint64_t lo, std::uint64_t hi) {
        const char *flag = argv[i];
        std::optional<std::uint64_t> v =
            support::parseNum("fault_path", flag, argv[++i], lo, hi);
        if (!v)
            std::exit(2);
        return *v;
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--kernels" && i + 1 < argc) {
            kernels = num(i, 0, kMaxU64);
        } else if (a == "--corr-kernels" && i + 1 < argc) {
            corrKernels = num(i, 0, kMaxU64);
        } else if (a == "--blocks" && i + 1 < argc) {
            totalBlocks = num(i, 1, kMaxBlocks);
        } else if (a == "--gpu-blocks" && i + 1 < argc) {
            gpuBlocks = num(i, 0, kMaxBlocks);
        } else if (a == "--micro-ops" && i + 1 < argc) {
            microOps = num(i, 0, kMaxU64);
        } else if (a == "--sm-batch" && i + 1 < argc) {
            smBatch = static_cast<unsigned>(
                num(i, 0, std::numeric_limits<unsigned>::max()));
        } else if (a == "--json" && i + 1 < argc) {
            json = argv[++i];
        } else if (a == "--stats-json" && i + 1 < argc) {
            statsJson = argv[++i];
        } else if (a == "--corr-stats-json" && i + 1 < argc) {
            corrStatsJson = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: fault_path [--kernels N] [--blocks N] "
                "[--gpu-blocks N] [--corr-kernels N] [--micro-ops N] "
                "[--sm-batch N] "
                "[--json file] [--stats-json file] "
                "[--corr-stats-json file]\n");
            return 2;
        }
    }
    if (smBatch == 0)
        smBatch = gpu::TimingConfig{}.smBatch;
    if (gpuBlocks >= totalBlocks) {
        std::fprintf(stderr,
                     "error: --gpu-blocks must be < --blocks (no "
                     "eviction pressure otherwise)\n");
        return 2;
    }

    unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    banner("fault-path throughput (full Figure-3 pipeline)");
    EndToEnd e = runEndToEnd(kernels, totalBlocks, gpuBlocks,
                             statsJson, smBatch);
    std::printf("host cores           %u\n", cores);
    std::printf("sm batch             %u\n", smBatch);
    std::printf("kernels              %llu\n",
                static_cast<unsigned long long>(e.kernels));
    std::printf("page faults          %llu\n",
                static_cast<unsigned long long>(e.pageFaults));
    std::printf("evicted blocks       %llu\n",
                static_cast<unsigned long long>(e.evictedBlocks));
    std::printf("wall time            %.3f s\n", e.wallSec);
    std::printf("faults/sec           %.3e\n", e.faultsPerSec);

    CorrHeavy c;
    if (corrKernels > 0) {
        banner("correlation-heavy fault path (DeepUM attached)");
        c = runCorrHeavy(corrKernels, totalBlocks, gpuBlocks,
                         corrStatsJson, smBatch);
        std::printf("kernels              %llu\n",
                    static_cast<unsigned long long>(c.kernels));
        std::printf("page faults          %llu\n",
                    static_cast<unsigned long long>(c.pageFaults));
        std::printf("prefetches issued    %llu\n",
                    static_cast<unsigned long long>(c.prefetchIssued));
        std::printf("chain blocks issued  %llu\n",
                    static_cast<unsigned long long>(c.blocksIssued));
        std::printf("chains started       %llu\n",
                    static_cast<unsigned long long>(c.chainsStarted));
        std::printf("wall time            %.3f s\n", c.wallSec);
        std::printf("faults/sec           %.3e\n", c.faultsPerSec);
        std::printf("events executed      %llu\n",
                    static_cast<unsigned long long>(c.eventsExecuted));
    }

#ifdef FAULT_PATH_HAVE_BLOCK_STORE
    banner("block metadata ops (BlockStore vs unordered_map+list)");
    Micro m = runMicro(microOps);
    std::printf("map ops/sec          %.3e\n", m.mapOpsPerSec);
    std::printf("store ops/sec        %.3e\n", m.storeOpsPerSec);
    std::printf("speedup              %.2fx\n", m.speedup);
    std::printf("state agreement      %s\n",
                m.checksumMatch ? "identical (checksum match)"
                                : "MISMATCH");
    if (!m.checksumMatch) {
        std::fprintf(stderr,
                     "error: store and map disagree on final state\n");
        return 1;
    }
#endif

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", json.c_str());
            return 1;
        }
        os << "{\n"
           << "  \"host_cores\": " << cores << ",\n"
           << "  \"sm_batch\": " << smBatch << ",\n"
           << "  \"kernels\": " << e.kernels << ",\n"
           << "  \"total_blocks\": " << totalBlocks << ",\n"
           << "  \"gpu_blocks\": " << gpuBlocks << ",\n"
           << "  \"page_faults\": " << e.pageFaults << ",\n"
           << "  \"evicted_blocks\": " << e.evictedBlocks << ",\n"
           << "  \"sim_ticks\": " << e.simTicks << ",\n"
           << "  \"wall_sec\": " << e.wallSec << ",\n"
           << "  \"faults_per_sec\": " << e.faultsPerSec;
        if (corrKernels > 0) {
            os << ",\n"
               << "  \"corr\": {\"kernels\": " << c.kernels
               << ", \"page_faults\": " << c.pageFaults
               << ", \"prefetch_issued\": " << c.prefetchIssued
               << ", \"chain_blocks_issued\": " << c.blocksIssued
               << ", \"chains_started\": " << c.chainsStarted
               << ", \"sim_ticks\": " << c.simTicks
               << ", \"events_executed\": " << c.eventsExecuted
               << ", \"wall_sec\": " << c.wallSec
               << ", \"faults_per_sec\": " << c.faultsPerSec << "}";
        }
#ifdef FAULT_PATH_HAVE_BLOCK_STORE
        os << ",\n"
           << "  \"micro\": {\"ops\": " << microOps
           << ", \"map_ops_per_sec\": " << m.mapOpsPerSec
           << ", \"store_ops_per_sec\": " << m.storeOpsPerSec
           << ", \"speedup\": " << m.speedup << ", \"checksum_match\": "
           << (m.checksumMatch ? "true" : "false") << "}";
#endif
        os << "\n}\n";
    }
    return 0;
}
