/**
 * @file
 * Unit tests for the GPU device model: fault buffer, PCIe link,
 * timing math, and the kernel-playback engine with a mock backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "gpu/backend.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "gpu/timing.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace deepum;
using namespace deepum::gpu;

namespace {

// ------------------------------------------------------------ buffer

TEST(FaultBuffer, PushAndDrain)
{
    FaultBuffer fb;
    fb.push(FaultEntry{1, 512, false, 0});
    fb.push(FaultEntry{2, 16, true, 5});
    EXPECT_EQ(fb.size(), 2u);
    const auto &v = fb.entries();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].block, 1u);
    EXPECT_EQ(v[1].block, 2u);
    EXPECT_TRUE(v[1].write);
    fb.clear();
    EXPECT_TRUE(fb.empty());
    // Cleared storage is reused by the next batch.
    EXPECT_GE(fb.entries().capacity(), 2u);
    EXPECT_EQ(fb.totalPushed(), 2u);
}

// ------------------------------------------------------------ link

TEST(PcieLink, SerializesTransfers)
{
    TimingConfig cfg;
    PcieLink link(cfg);
    sim::Tick t1 = link.acquire(0, 1024 * 1024, Dir::HostToDev);
    sim::Tick t2 = link.acquire(0, 1024 * 1024, Dir::DevToHost);
    EXPECT_GT(t2, t1); // second transfer waits for the first
    EXPECT_EQ(link.bytesHtoD(), 1024u * 1024);
    EXPECT_EQ(link.bytesDtoH(), 1024u * 1024);
    EXPECT_EQ(link.freeAt(), t2);
}

TEST(PcieLink, TransferTimeMatchesBandwidth)
{
    TimingConfig cfg;
    PcieLink link(cfg);
    std::uint64_t bytes = cfg.pcieBytesPerSec; // one second of data
    sim::Tick done = link.acquire(0, bytes, Dir::HostToDev);
    EXPECT_EQ(done, cfg.pcieLatency + sim::kSec);
}

TEST(PcieLink, IdleAtRespectsBusyWindow)
{
    TimingConfig cfg;
    PcieLink link(cfg);
    sim::Tick done = link.acquire(100, 4096, Dir::HostToDev);
    EXPECT_FALSE(link.idleAt(done - 1));
    EXPECT_TRUE(link.idleAt(done));
}

/**
 * The per-chunk reference acquireChunked() replaces: one acquire()
 * per piece, @p gap added after each.
 */
sim::Tick
chunkedByLoop(PcieLink &link, sim::Tick t, std::uint64_t bytes,
              std::uint64_t chunk, sim::Tick gap, Dir dir)
{
    while (bytes > 0) {
        std::uint64_t n = std::min(bytes, chunk);
        t = link.acquire(t, n, dir) + gap;
        bytes -= n;
    }
    return t;
}

std::string
traceJson(const sim::Tracer &tr)
{
    std::ostringstream os;
    tr.writeJson(os);
    return os.str();
}

TEST(PcieLink, ChunkedReservationMatchesPerChunkLoop)
{
    sim::Rng rng(14);
    for (int trial = 0; trial < 4000; ++trial) {
        TimingConfig cfg;
        cfg.pcieBytesPerSec = sim::kGiB + rng.below(15 * sim::kGiB);
        cfg.pcieLatency = rng.below(20 * sim::kUsec);
        std::uint64_t chunk = 1 + rng.below(256 * sim::kKiB);
        sim::Tick gap = trial % 8 == 0 ? 0 : rng.below(50 * sim::kUsec);
        // 0 bytes, under one chunk, whole chunks, whole chunks plus a
        // partial tail.
        std::uint64_t whole = chunk * (1 + rng.below(40));
        std::uint64_t part = rng.below(chunk);
        std::uint64_t bytes = trial % 4 == 0   ? 0
                              : trial % 4 == 1 ? part
                              : trial % 4 == 2 ? whole
                                               : whole + part;
        Dir dir = trial % 2 == 0 ? Dir::HostToDev : Dir::DevToHost;

        PcieLink got(cfg), want(cfg);
        sim::Tracer got_tr, want_tr;
        got.setTracer(&got_tr);
        want.setTracer(&want_tr);
        // Same random prior state on both: busy until some tick, with
        // traffic in both directions already counted.
        for (PcieLink *l : {&got, &want}) {
            sim::Rng state(trial);
            l->acquire(state.below(sim::kMsec), state.below(sim::kMiB),
                       Dir::HostToDev);
            l->acquire(0, state.below(sim::kMiB), Dir::DevToHost);
        }
        sim::Tick now = rng.below(3 * sim::kMsec);

        ASSERT_EQ(got.acquireChunked(now, bytes, chunk, gap, dir),
                  chunkedByLoop(want, now, bytes, chunk, gap, dir))
            << "trial " << trial << ": " << bytes << " bytes in "
            << chunk << "-byte chunks, gap " << gap;
        ASSERT_EQ(got.freeAt(), want.freeAt());
        ASSERT_EQ(got.busyTicks(), want.busyTicks());
        ASSERT_EQ(got.bytesHtoD(), want.bytesHtoD());
        ASSERT_EQ(got.bytesDtoH(), want.bytesDtoH());
        ASSERT_EQ(got_tr.eventCount(), want_tr.eventCount());
        ASSERT_EQ(traceJson(got_tr), traceJson(want_tr))
            << "trial " << trial;
    }
}

TEST(Timing, CopyTicksLinear)
{
    TimingConfig cfg;
    EXPECT_EQ(cfg.copyTicks(0), 0u);
    EXPECT_EQ(cfg.copyTicks(cfg.pcieBytesPerSec), sim::kSec);
    EXPECT_EQ(cfg.copyTicks(cfg.pcieBytesPerSec / 2), sim::kSec / 2);
}

// ------------------------------------------------------------ engine

/** Backend with scriptable residency. */
class MockBackend : public UvmBackend
{
  public:
    std::unordered_set<mem::BlockId> resident;
    int interrupts = 0;
    int begins = 0;
    int ends = 0;
    std::uint64_t accesses = 0;
    GpuEngine *engine = nullptr;
    FaultBuffer *fb = nullptr;
    sim::EventQueue *eq = nullptr;

    bool
    isResident(mem::BlockId b) const override
    {
        return resident.count(b) != 0;
    }

    void
    faultInterrupt() override
    {
        ++interrupts;
        // Resolve after a fixed delay: make everything resident and
        // replay, like an instant driver.
        eq->scheduleIn(1000, [this] {
            for (const auto &e : fb->entries())
                resident.insert(e.block);
            fb->clear();
            engine->replay();
        });
    }

    void onKernelBegin(const KernelInfo &) override { ++begins; }
    void onKernelEnd(const KernelInfo &) override { ++ends; }
    void onBlockAccess(mem::BlockId) override { ++accesses; }
};

struct EngineWorld {
    sim::EventQueue eq;
    sim::StatSet stats;
    TimingConfig cfg;
    FaultBuffer fb;
    GpuEngine engine{eq, cfg, fb, stats};
    MockBackend backend;

    EngineWorld()
    {
        backend.engine = &engine;
        backend.fb = &fb;
        backend.eq = &eq;
        engine.setBackend(&backend);
    }
};

KernelInfo
makeKernel(const char *name, sim::Tick compute,
           std::initializer_list<mem::BlockId> blocks)
{
    KernelInfo k;
    k.name = name;
    k.computeNs = compute;
    for (mem::BlockId b : blocks)
        k.accesses.push_back(BlockAccess{b, 512, false});
    return k;
}

TEST(GpuEngine, ResidentKernelRunsForItsComputeTime)
{
    EngineWorld w;
    KernelInfo k = makeKernel("k", 100000, {1, 2, 3});
    for (mem::BlockId b : {1, 2, 3})
        w.backend.resident.insert(b);
    bool done = false;
    w.engine.launch(&k, [&] { done = true; });
    w.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(w.backend.interrupts, 0);
    EXPECT_EQ(w.engine.computeTicks(), 100000u);
    EXPECT_EQ(w.eq.now(), w.cfg.kernelLaunchOverhead + 100000u);
    EXPECT_EQ(w.backend.accesses, 3u);
}

TEST(GpuEngine, NonResidentBlocksRaiseFaultsAndStall)
{
    EngineWorld w;
    KernelInfo k = makeKernel("k", 100000, {7, 8});
    bool done = false;
    w.engine.launch(&k, [&] { done = true; });
    w.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(w.backend.interrupts, 1);
    EXPECT_GT(w.engine.stallTicks(), 0u);
    // Replay made them resident, so the accesses completed.
    EXPECT_EQ(w.backend.accesses, 2u);
}

TEST(GpuEngine, DuplicateBlocksInBatchFaultOnce)
{
    EngineWorld w;
    KernelInfo k = makeKernel("k", 1000, {5, 5, 5, 5});
    w.engine.launch(&k, [] {});
    w.eq.run(1); // launch-overhead event: issues the batch
    // Engine deduped within the batch: one entry.
    EXPECT_EQ(w.fb.totalPushed(), 1u);
    w.eq.run();
}

TEST(GpuEngine, ZeroAccessKernelStillBurnsCompute)
{
    EngineWorld w;
    KernelInfo k;
    k.name = "empty";
    k.computeNs = 5000;
    bool done = false;
    w.engine.launch(&k, [&] { done = true; });
    w.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(w.engine.computeTicks(), 5000u);
    EXPECT_EQ(w.backend.ends, 1);
}

TEST(GpuEngine, ComputeChargedExactlyOnceAcrossBatches)
{
    EngineWorld w;
    // 20 accesses with smBatch 8 -> 3 batches; total must be exact.
    KernelInfo k;
    k.name = "k";
    k.computeNs = 999983; // prime: exercises rounding
    for (int i = 0; i < 20; ++i) {
        k.accesses.push_back(
            BlockAccess{static_cast<mem::BlockId>(i), 4, false});
        w.backend.resident.insert(static_cast<mem::BlockId>(i));
    }
    w.engine.launch(&k, [] {});
    w.eq.run();
    EXPECT_EQ(w.engine.computeTicks(), 999983u);
}

/** A resident-everything backend that logs when each access ran. */
class AccessTimes : public MockBackend
{
  public:
    std::vector<sim::Tick> at;

    void
    onBlockAccess(mem::BlockId b) override
    {
        MockBackend::onBlockAccess(b);
        at.push_back(eq->now());
    }
};

TEST(GpuEngine, RunningRemainderChargesEachBatchExactly)
{
    // computeNs*smBatch overflows 64 bits, and 21 accesses leave a
    // short last batch: [0, 8), [8, 16), [16, 21).
    sim::EventQueue eq;
    sim::StatSet stats;
    TimingConfig cfg;
    cfg.smBatch = 8;
    FaultBuffer fb;
    GpuEngine engine{eq, cfg, fb, stats};
    AccessTimes backend;
    backend.eq = &eq;
    engine.setBackend(&backend);

    const sim::Tick c = (sim::Tick(1) << 63) + 12345;
    const std::size_t n = 21;
    KernelInfo k;
    k.name = "k";
    k.computeNs = c;
    for (std::size_t i = 0; i < n; ++i) {
        k.accesses.push_back(
            BlockAccess{static_cast<mem::BlockId>(i), 4, false});
        backend.resident.insert(static_cast<mem::BlockId>(i));
    }
    sim::Tick retired = 0;
    engine.launch(&k, [&] { retired = eq.now(); });
    eq.run();
    ASSERT_EQ(backend.at.size(), n);

    auto charged = [&](std::size_t upto) {
        return static_cast<sim::Tick>(
            static_cast<__uint128_t>(c) * upto / n);
    };
    sim::Tick sum = 0;
    for (std::size_t begin = 0; begin < n; begin += cfg.smBatch) {
        std::size_t end = std::min(n, begin + cfg.smBatch);
        // A batch's accesses run when it issues; its charge is the
        // gap to the next batch (or to retirement).
        sim::Tick issued = backend.at[begin];
        sim::Tick next = end < n ? backend.at[end] : retired;
        EXPECT_EQ(next - issued, charged(end) - charged(begin))
            << "batch [" << begin << ", " << end << ")";
        sum += next - issued;
    }
    EXPECT_EQ(sum, c);
    EXPECT_EQ(engine.computeTicks(), c);
    EXPECT_EQ(retired, cfg.kernelLaunchOverhead + c);
}

TEST(GpuEngine, SequentialKernelsBothComplete)
{
    EngineWorld w;
    KernelInfo k1 = makeKernel("a", 1000, {1});
    KernelInfo k2 = makeKernel("b", 2000, {2});
    w.backend.resident = {1, 2};
    int done = 0;
    auto first = [&] {
        ++done;
        w.engine.launch(&k2, [&done] { ++done; });
    };
    w.engine.launch(&k1, [&first] { first(); });
    w.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(w.backend.begins, 2);
    EXPECT_EQ(w.backend.ends, 2);
    EXPECT_EQ(w.engine.computeTicks(), 3000u);
}

TEST(GpuEngineDeath, LaunchWhileBusyPanics)
{
    EngineWorld w;
    KernelInfo k = makeKernel("a", 1000, {1});
    w.backend.resident = {1};
    w.engine.launch(&k, [] {});
    EXPECT_DEATH(w.engine.launch(&k, [] {}), "busy");
}

TEST(KernelInfo, PagesTouchedSumsAccesses)
{
    KernelInfo k = makeKernel("k", 0, {1, 2});
    EXPECT_EQ(k.pagesTouched(), 1024u);
}

} // namespace
