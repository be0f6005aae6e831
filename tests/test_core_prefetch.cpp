/**
 * @file
 * Unit tests for the correlator, prefetcher (chaining semantics),
 * DeepUM eviction policy, and pre-evictor, wired to a real driver on
 * a small simulated GPU, plus a property test of the prediction
 * window's protected set against the per-slot refcount design,
 * model-based and direct tests of the resumable victim walk, and a
 * paused chain whose swept index hints an erase has made stale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/correlator.hh"
#include "core/deepum.hh"
#include "core/deepum_policy.hh"
#include "core/prefetcher.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "uvm/driver.hh"

using namespace deepum;
using namespace deepum::core;

namespace {

// ---------------------------------------------------------- correlator

struct TableFixture {
    ExecCorrelationTable exec;
    BlockCorrelationTableSet blocks{BlockTableConfig{64, 2, 4}};
    Correlator corr{exec, blocks};
};

TEST(Correlator, TracksCurrentAndHistory)
{
    TableFixture f;
    f.corr.onKernelLaunch(10);
    f.corr.onKernelLaunch(11);
    f.corr.onKernelLaunch(12);
    f.corr.onKernelLaunch(13);
    EXPECT_EQ(f.corr.currentExec(), 13u);
    EXPECT_EQ(f.corr.history(), (ExecHistory{10, 11, 12}));
}

TEST(Correlator, RecordsExecSuccession)
{
    TableFixture f;
    for (ExecId id : {1u, 2u, 3u, 1u, 2u, 3u})
        f.corr.onKernelLaunch(id);
    // After seeing 1->2->3 twice: entry 2's second record carries
    // history {2, 3, 1} (the three launches before the second 2).
    EXPECT_EQ(f.exec.predict(2, ExecHistory{2, 3, 1}, false), 3u);
}

TEST(Correlator, RecordsFaultPairsWithinKernel)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100, 101, 102});
    auto *bt = f.blocks.find(5);
    ASSERT_NE(bt, nullptr);
    ASSERT_EQ(bt->successors(100).size(), 1u);
    EXPECT_EQ(bt->successors(100)[0], 101u);
    EXPECT_EQ(bt->successors(101)[0], 102u);
}

TEST(Correlator, CommitsStartEndAtTransition)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100, 101, 102});
    f.corr.onKernelLaunch(6); // closes kernel 5
    auto *bt = f.blocks.find(5);
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(bt->start(), 100u);
    EXPECT_EQ(bt->end(), 102u);
}

TEST(Correlator, NoCrossKernelPairs)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100});
    f.corr.onKernelLaunch(6);
    f.corr.onFaultBlocks({200});
    // 100 -> 200 crosses the kernel boundary: chaining handles that
    // through start/end, not successor edges.
    auto *bt5 = f.blocks.find(5);
    EXPECT_TRUE(bt5->successors(100).empty());
}

TEST(Correlator, FaultsBeforeFirstLaunchIgnored)
{
    TableFixture f;
    f.corr.onFaultBlocks({1, 2}); // must not crash or record
    EXPECT_EQ(f.blocks.tableCount(), 0u);
}

// ------------------------------------------------------ protected set

/**
 * The protected-set design the window's stamps replaced, kept as the
 * oracle: each live slot lists every block slot it protected, and a
 * block is protected while its refcount over those lists is nonzero.
 */
struct RefcountWindow {
    struct Slot {
        ExecId exec;
        std::vector<uvm::BlockIndex> blocks;
    };
    std::deque<Slot> slots;
    std::vector<std::uint32_t> refs;

    explicit RefcountWindow(std::size_t blocks) : refs(blocks, 0) {}

    void
    protect(std::size_t k, uvm::BlockIndex i)
    {
        slots[k].blocks.push_back(i);
        ++refs[i];
    }

    void
    popFront()
    {
        for (uvm::BlockIndex i : slots.front().blocks)
            --refs[i];
        slots.pop_front();
    }

    /** Drop every entry naming a slot in [lo, hi) (a range free). */
    void
    freeRange(uvm::BlockIndex lo, uvm::BlockIndex hi)
    {
        for (Slot &s : slots)
            std::erase_if(s.blocks, [&](uvm::BlockIndex i) {
                if (i < lo || i >= hi)
                    return false;
                --refs[i];
                return true;
            });
    }
};

TEST(PredictionWindow, MatchesPerSlotRefcountModel)
{
    constexpr std::size_t kCapacity = 6; // lookaheadN 4, plus 2
    constexpr uvm::BlockIndex kBlocks = 40;
    PredictionWindow w(kCapacity);
    w.growStamps(kBlocks);
    RefcountWindow m(kBlocks);
    sim::Rng rng(18);
    int slides = 0, clears = 0, frees = 0, reprotects = 0;

    for (int step = 0; step < 20000; ++step) {
        std::uint64_t op = rng.below(100);
        if (op < 15) {
            // Predict one more kernel.
            if (w.size() == kCapacity)
                continue;
            ExecId e = static_cast<ExecId>(rng.below(1000));
            w.push(e);
            m.slots.push_back({e, {}});
        } else if (op < 60) {
            // Issue a block for a live slot, often one some slot
            // already protects.
            if (w.size() == 0)
                continue;
            std::size_t k = rng.below(w.size());
            auto i = static_cast<uvm::BlockIndex>(rng.below(kBlocks));
            reprotects += m.refs[i] != 0;
            w.protect(k, i);
            m.protect(k, i);
        } else if (op < 80) {
            // The front kernel launched as predicted: slide.
            if (w.size() == 0)
                continue;
            w.popFront();
            m.popFront();
            ++slides;
        } else if (op < 85) {
            // A mispredicted launch retires the whole window.
            w.clear();
            while (!m.slots.empty())
                m.popFront();
            ++clears;
        } else if (op < 90) {
            // A range free scrubs its blocks.
            auto lo = static_cast<uvm::BlockIndex>(rng.below(kBlocks));
            uvm::BlockIndex hi = std::min<uvm::BlockIndex>(
                kBlocks, lo + 1 + static_cast<uvm::BlockIndex>(
                                      rng.below(8)));
            for (uvm::BlockIndex i = lo; i != hi; ++i)
                w.unprotect(i);
            m.freeRange(lo, hi);
            ++frees;
        } else {
            continue;
        }

        ASSERT_EQ(w.size(), m.slots.size()) << "step " << step;
        for (std::size_t k = 0; k < w.size(); ++k)
            ASSERT_EQ(w.exec(k), m.slots[k].exec)
                << "window slot " << k << " at step " << step;
        for (uvm::BlockIndex i = 0; i < kBlocks; ++i)
            ASSERT_EQ(w.isProtected(i), m.refs[i] != 0)
                << "block slot " << i << " at step " << step;
        sim::CheckContext ctx("PredictionWindow", "test",
                              [&](std::ostream &os) { w.dumpState(os); });
        w.checkInvariants(ctx);
    }
    EXPECT_GT(slides, 0);
    EXPECT_GT(clears, 0);
    EXPECT_GT(frees, 0);
    EXPECT_GT(reprotects, 0);
}

// ------------------------------------------------------ full pipeline

constexpr std::uint64_t kGpuBlocks = 8;

/** "k<k>". Appended: g++ 12 warns falsely (-Wrestrict) on
 * `"k" + std::to_string(k)` here. */
std::string
kernelName(int k)
{
    std::string name = "k";
    name += std::to_string(k);
    return name;
}

struct DeepUmWorld {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    DeepUmConfig dcfg;
    std::unique_ptr<DeepUm> dum;

    explicit DeepUmWorld(DeepUmConfig c = {})
        : dcfg(c)
    {
        engine.setBackend(&drv);
        drv.setEngine(&engine);
        dum = std::make_unique<DeepUm>(drv, dcfg, stats);
    }

    mem::VAddr
    reg(std::uint64_t blocks)
    {
        drv.registerRange(mem::kUmBase, blocks * mem::kBlockBytes);
        return mem::kUmBase;
    }

    /** Launch a kernel with the DeepUM callback, touching blocks. */
    void
    launch(const std::string &name, std::uint64_t arghash,
           std::vector<mem::BlockId> blocks)
    {
        kernel_.name = name;
        kernel_.argHash = arghash;
        kernel_.computeNs = 1 * sim::kMsec;
        kernel_.accesses.clear();
        for (auto b : blocks)
            kernel_.accesses.push_back(
                gpu::BlockAccess{b, 512, false});
        ids_.push_back(execIds_.lookupOrAssign(kernel_));
        dum->notifyKernelLaunch(ids_.back());
        bool done = false;
        engine.launch(&kernel_, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }

    gpu::KernelInfo kernel_;
    ExecutionIdTable execIds_;
    std::vector<ExecId> ids_;
};

TEST(DeepUmPipeline, LearnsAndPrefetchesRepeatedSequence)
{
    DeepUmConfig cfg;
    cfg.preevict = false; // keep the 6 blocks resident on 8 frames
    DeepUmWorld w(cfg);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);

    auto iteration = [&] {
        w.launch("k1", 1, {b0, b0 + 1});
        w.launch("k2", 2, {b0 + 2, b0 + 3});
        w.launch("k3", 3, {b0 + 4, b0 + 5});
    };

    iteration(); // cold: everything faults
    auto cold_faults = w.stats.get("uvm.pageFaults");
    EXPECT_GT(cold_faults, 0u);

    // Everything fits (6 <= 8 blocks): steady iterations are
    // fault-free because the blocks stay resident.
    iteration();
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), cold_faults);
}

TEST(DeepUmPipeline, PrefetchCoversEvictedBlocksAcrossIterations)
{
    DeepUmConfig cfg;
    cfg.preevictWatermarkPages = mem::kPagesPerBlock; // tiny GPU
    // At this 12-block scale the default N would protect the whole
    // working set and strangle eviction; scale the window with the
    // memory, as Figure 11 teaches.
    cfg.lookaheadN = 2;
    DeepUmWorld w(cfg);
    // 12 blocks on an 8-block GPU: capacity misses guaranteed.
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);

    auto iteration = [&] {
        for (int k = 0; k < 6; ++k) {
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
        }
    };
    for (int i = 0; i < 6; ++i)
        iteration();

    // Prefetching must be doing real work: most migrations in steady
    // state arrive via the prefetch queue, not demand faults.
    EXPECT_GT(w.stats.get("uvm.prefetchCompleted"),
              w.stats.get("uvm.prefetchWasted"));
    EXPECT_GT(w.stats.get("uvm.prefetchUseful"), 10u);
    EXPECT_EQ(w.stats.get("prefetcher.mispredictedLaunches"), 0u);
}

TEST(DeepUmPipeline, PrefetchDisabledIssuesNothing)
{
    DeepUmConfig c;
    c.prefetch = false;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 3; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_EQ(w.stats.get("uvm.prefetchIssued"), 0u);
    EXPECT_EQ(w.stats.get("prefetcher.blocksIssued"), 0u);
}

TEST(DeepUmPipeline, PreevictKeepsFreeWatermark)
{
    DeepUmConfig c;
    c.preevictWatermarkPages = 2 * mem::kPagesPerBlock;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_GT(w.stats.get("uvm.preEvictions"), 0u);
}

TEST(DeepUmPipeline, PreevictDisabledNeverPreevicts)
{
    DeepUmConfig c;
    c.preevict = false;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_EQ(w.stats.get("uvm.preEvictions"), 0u);
}

TEST(DeepUmPipeline, TableBytesGrowWithDistinctKernels)
{
    DeepUmWorld w;
    mem::VAddr va = w.reg(4);
    mem::BlockId b0 = mem::blockOf(va);
    auto before = w.dum->tableBytes();
    w.launch("a", 1, {b0});
    w.launch("b", 2, {b0 + 1});
    w.launch("c", 3, {b0 + 2});
    EXPECT_GT(w.dum->tableBytes(), before);
    EXPECT_EQ(w.dum->blockTables().tableCount(), 3u);
}

TEST(DeepUmPipeline, ExecPredictionAccurateOnLoop)
{
    DeepUmWorld w;
    mem::VAddr va = w.reg(4);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 5; ++i) {
        w.launch("x", 1, {b0});
        w.launch("y", 2, {b0 + 1});
        w.launch("z", 3, {b0 + 2});
    }
    // After warmup the window never breaks.
    EXPECT_EQ(w.stats.get("prefetcher.mispredictedLaunches"), 0u);
    const auto &exec = w.dum->execTable();
    EXPECT_EQ(exec.entryCount(), 3u);
}

TEST(DeepUmPipeline, InvalidationFlagReachesDriver)
{
    DeepUmConfig on;
    on.invalidate = true;
    on.preevict = false; // isolate the invalidation path
    DeepUmWorld w(on);
    mem::VAddr va = w.reg(10);
    mem::BlockId b0 = mem::blockOf(va);
    // Touch 8 blocks (fills GPU), mark them dead, touch 2 more.
    std::vector<mem::BlockId> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(b0 + i);
    w.launch("fill1", 1, {first[0], first[1], first[2], first[3]});
    w.launch("fill2", 2, {first[4], first[5], first[6], first[7]});
    w.drv.markInactiveRange(va, 8 * mem::kBlockBytes, true);
    w.launch("more", 3, {b0 + 8, b0 + 9});
    EXPECT_GT(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 0u);
}

TEST(DeepUmPipeline, PausedChainChecksSweptIndicesShiftedByAnErase)
{
    // A chain paused at the lookahead limit keeps the entries it swept
    // on entering the next kernel in its walk, each with its index as
    // a visit() hint. Erasing a lower-indexed entry before the chain
    // resumes shifts every one of them down an index; the resumed walk
    // must still issue the swept entries' successors, not those of the
    // entries that slid under their old indices. The event queue never
    // runs, so every issued prefetch stays queued.
    DeepUmConfig cfg;
    cfg.lookaheadN = 1; // pause on entering the predicted kernel
    cfg.preevict = false;
    DeepUmWorld w(cfg);
    const mem::BlockId b0 = mem::blockOf(w.reg(64));
    auto queued = [&](mem::BlockId b) {
        return w.drv.blockInfo(b).queuedPrefetch;
    };

    // Exec 2's table: ten entries, tag t with the one successor t + 20.
    // Ageing the even-indexed ones out of the fresh window leaves a
    // stale entry above each swept one.
    BlockCorrelationTable &bt = w.dum->blockTables().getOrCreate(2);
    for (mem::BlockId t = b0 + 10; t < b0 + 20; ++t)
        bt.record(t, t + 20);
    const std::vector<mem::BlockId> order = bt.freshTags(4);
    ASSERT_EQ(order.size(), 10u);
    for (int e = 0; e < 5; ++e)
        bt.captureStartEnd(b0 + 50, b0 + 51, 1);
    for (std::size_t k = 1; k < order.size(); k += 2)
        bt.refresh(order[k]);
    ASSERT_EQ(bt.freshTags(4).size(), 5u);
    bt.setStart(b0 + 50); // no entry, never met as the end
    bt.setEnd(b0 + 51);

    // Exec 1 is followed by exec 2: a fault batch in exec 1 chains
    // into exec 2's table and pauses there.
    w.dum->notifyKernelLaunch(1);
    w.dum->notifyKernelLaunch(2);
    w.dum->notifyKernelLaunch(1);
    w.dum->onFaultBatch({b0, b0 + 1});
    ASSERT_EQ(w.stats.get("prefetcher.chainPauses"), 1u);
    ASSERT_EQ(w.dum->prefetcher().chainDepth(), 1u);
    for (std::size_t k = 0; k < order.size(); ++k) {
        ASSERT_EQ(queued(order[k]), k % 2 == 1) << "entry " << k;
        ASSERT_FALSE(queued(order[k] + 20)) << "entry " << k;
    }

    bt.erase(order[0]);
    w.dum->onKernelEnd(w.kernel_);
    for (std::size_t k = 1; k < order.size(); ++k)
        EXPECT_EQ(queued(order[k] + 20), k % 2 == 1) << "entry " << k;
}

// ------------------------------------------------ resumable victim walk

/**
 * The victim rule of paper Section 5.1 computed from scratch: the
 * oldest migrated block that is neither pinned nor protected, else
 * (demand only) the oldest unpinned one.
 */
mem::BlockId
referenceVictim(const uvm::Driver &drv, const Prefetcher &pf, bool demand)
{
    const uvm::BlockStore &st = drv.store();
    for (mem::BlockId b : st.lruOrder())
        if (!drv.isPinned(b) && !pf.isProtectedIndex(st.find(b)))
            return b;
    if (!demand)
        return uvm::kNoBlock;
    for (mem::BlockId b : st.lruOrder())
        if (!drv.isPinned(b))
            return b;
    return uvm::kNoBlock;
}

/** What the checked runs below exercised. */
struct WalkCounts {
    int demand = 0;
    int nonDemand = 0;
    int none = 0;          ///< kNoBlock answers
    int fallback = 0;      ///< demand answers that were protected
    int afterRetire = 0;   ///< calls after the window retired slots
    int afterFree = 0;     ///< calls after a range free
    std::uint64_t retired = 0; ///< the window's retired count at the last call
    bool freed = false;        ///< the test freed a range since the last call
};

/** Forwards to a DeepUmPolicy and checks every answer against
 * referenceVictim. */
class CheckedDeepUmPolicy : public uvm::EvictionPolicy
{
  public:
    CheckedDeepUmPolicy(const Prefetcher &pf, DeepUmPolicy &inner,
                        WalkCounts &counts)
        : pf_(pf), inner_(inner), counts_(counts)
    {
    }

    mem::BlockId
    pickVictim(const uvm::Driver &drv, bool demand) override
    {
        mem::BlockId got = inner_.pickVictim(drv, demand);
        EXPECT_EQ(got, referenceVictim(drv, pf_, demand))
            << (demand ? "demand" : "non-demand") << " call "
            << counts_.demand + counts_.nonDemand;
        ++(demand ? counts_.demand : counts_.nonDemand);
        counts_.none += got == uvm::kNoBlock;
        counts_.fallback +=
            got != uvm::kNoBlock &&
            pf_.isProtectedIndex(drv.store().find(got));
        counts_.afterRetire += pf_.window().retired() != counts_.retired;
        counts_.retired = pf_.window().retired();
        counts_.afterFree += counts_.freed;
        counts_.freed = false;
        return got;
    }

    const char *name() const override { return "checked-deepum"; }

  private:
    const Prefetcher &pf_;
    DeepUmPolicy &inner_;
    WalkCounts &counts_;
};

TEST(DeepUmPolicy, ResumedWalkMatchesTheFullWalk)
{
    DeepUmConfig cfg;
    cfg.lookaheadN = 2;
    cfg.preevictWatermarkPages = 2 * mem::kPagesPerBlock;
    DeepUmWorld w(cfg);
    DeepUmPolicy policy(w.dum->prefetcher());
    WalkCounts counts;
    w.drv.setEvictionPolicy(std::make_unique<CheckedDeepUmPolicy>(
        w.dum->prefetcher(), policy, counts));

    // Region A (12 blocks) stays; region B (3 blocks) is freed and
    // registered again at random, between kernels.
    mem::BlockId a0 = mem::blockOf(w.reg(12));
    const mem::VAddr vb = mem::kUmBase + 16 * mem::kBlockBytes;
    const mem::BlockId b0 = mem::blockOf(vb);
    bool b_live = true;
    w.drv.registerRange(vb, 3 * mem::kBlockBytes);
    int frees = 0;

    sim::Rng rng(31);
    for (int launch = 0; launch < 600; ++launch) {
        if (rng.below(100) < 4) {
            if (b_live) {
                w.drv.unregisterRange(vb, 3 * mem::kBlockBytes);
                counts.freed = true;
                ++frees;
            } else {
                w.drv.registerRange(vb, 3 * mem::kBlockBytes);
            }
            b_live = !b_live;
        }
        // A six-kernel loop, with the odd launch out of order so the
        // window mispredicts as well as slides.
        int k = launch % 6;
        if (rng.below(100) < 8)
            k = static_cast<int>(rng.below(6));
        std::vector<mem::BlockId> blocks{a0 + 2 * k, a0 + 2 * k + 1};
        if (b_live && k % 2 == 0)
            blocks.push_back(b0 + k / 2);
        static const char *const kNames[] = {"k0", "k1", "k2",
                                             "k3", "k4", "k5"};
        w.launch(kNames[k], k, blocks);
    }

    EXPECT_GT(frees, 0);
    EXPECT_GT(counts.afterFree, 0);
    EXPECT_GT(counts.afterRetire, 0);
    EXPECT_GT(counts.demand, 0);
    EXPECT_GT(counts.nonDemand, 0);
    EXPECT_GT(counts.none, 0);
    EXPECT_GT(w.stats.get("uvm.demandEvictions"), 0u);
    EXPECT_GT(w.stats.get("uvm.preEvictions"), 0u);
    EXPECT_GT(w.stats.get("prefetcher.mispredictedLaunches"), 0u);
    EXPECT_GT(w.stats.get("uvm.prefetchDropped"), 0u);
}

/**
 * A 4-block GPU with a bare driver (stock LRU policy, no DeepUM
 * listener) and a standalone prefetcher, so a test sets protection
 * and residency step by step and asks its own DeepUmPolicy.
 */
struct CursorWorld {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{4 * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    ExecCorrelationTable exec;
    BlockCorrelationTableSet tables{BlockTableConfig{64, 2, 4}};
    Correlator corr{exec, tables};
    DeepUmConfig dcfg;
    Prefetcher pf{drv, exec, tables, corr, dcfg, stats};
    DeepUmPolicy policy{pf};
    const mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    CursorWorld()
    {
        engine.setBackend(&drv);
        drv.setEngine(&engine);
    }

    /** Demand-migrate @p blocks (one kernel; LRU evicts as needed). */
    void
    touch(std::vector<mem::BlockId> blocks)
    {
        kernel_.name = "touch";
        kernel_.computeNs = sim::kUsec;
        kernel_.accesses.clear();
        for (mem::BlockId b : blocks)
            kernel_.accesses.push_back(gpu::BlockAccess{b, 512, false});
        bool done = false;
        engine.launch(&kernel_, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }

    /**
     * Launch exec @p id (retiring the window's slots unless predicted)
     * and protect @p blocks, which must be resident, for it.
     */
    void
    protect(ExecId id, const std::vector<mem::BlockId> &blocks)
    {
        corr.onKernelLaunch(id);
        pf.onKernelLaunch(id);
        corr.onFaultBlocks(blocks);
        pf.onFaultBlocks(blocks);
        eq.run();
    }

    mem::BlockId pick() { return policy.pickVictim(drv, false); }

    gpu::KernelInfo kernel_;
};

TEST(DeepUmPolicy, RetiredSlotUnprotectsACachedBlock)
{
    CursorWorld w;
    w.drv.registerRange(mem::kUmBase, 4 * mem::kBlockBytes);
    const mem::BlockId b0 = w.b0;
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.protect(1, {b0, b0 + 1});
    ASSERT_TRUE(w.pf.isProtectedIndex(w.drv.store().find(b0)));
    EXPECT_EQ(w.pick(), b0 + 2); // caches the prefix b0, b1
    EXPECT_EQ(w.pick(), b0 + 2);
    // Launching another kernel retires exec 1's slot: b0 is the
    // oldest unprotected block again.
    w.corr.onKernelLaunch(2);
    w.pf.onKernelLaunch(2);
    ASSERT_FALSE(w.pf.isProtectedIndex(w.drv.store().find(b0)));
    EXPECT_EQ(w.pick(), b0);
}

TEST(DeepUmPolicy, CachedBlockEvictedThenMigratedAgain)
{
    CursorWorld w;
    w.drv.registerRange(mem::kUmBase, 6 * mem::kBlockBytes);
    const mem::BlockId b0 = w.b0;
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.protect(1, {b0});
    EXPECT_EQ(w.pick(), b0 + 1); // caches the prefix b0
    // The driver's stock policy evicts b0 (it stays protected), then
    // migrates it again, evicting b1: b0 sits at the LRU's tail.
    w.touch({b0 + 4});
    w.touch({b0});
    ASSERT_EQ(w.drv.blockInfo(b0).loc, uvm::Loc::Device);
    ASSERT_TRUE(w.pf.isProtectedIndex(w.drv.store().find(b0)));
    EXPECT_EQ(w.pick(), b0 + 2);

    // Evicted and not yet back: LRU b3, b4, b0, b5 after caching b2.
    w.protect(2, {b0 + 2});
    EXPECT_EQ(w.pick(), b0 + 3); // caches the prefix b2
    w.touch({b0 + 5});
    ASSERT_NE(w.drv.blockInfo(b0 + 2).loc, uvm::Loc::Device);
    EXPECT_EQ(w.pick(), b0 + 3);
}

TEST(DeepUmPolicy, CachedBlocksRangeFreed)
{
    CursorWorld w;
    w.drv.registerRange(mem::kUmBase, 2 * mem::kBlockBytes);
    w.drv.registerRange(mem::kUmBase + 2 * mem::kBlockBytes,
                        4 * mem::kBlockBytes);
    const mem::BlockId b0 = w.b0;
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.protect(1, {b0, b0 + 1});
    EXPECT_EQ(w.pick(), b0 + 2); // caches the prefix b0, b1
    // Free the prefix's range. Its stale records still read resident.
    w.drv.unregisterRange(mem::kUmBase, 2 * mem::kBlockBytes);
    w.pf.onRangeUnregistered(b0, b0 + 2);
    EXPECT_EQ(w.pick(), b0 + 2);
    // Registered and migrated again: b1 is unprotected and newest.
    w.drv.registerRange(mem::kUmBase, 2 * mem::kBlockBytes);
    w.touch({b0 + 1});
    EXPECT_EQ(w.pick(), b0 + 2);
    w.protect(2, {b0 + 2, b0 + 3});
    EXPECT_EQ(w.pick(), b0 + 1);
}

TEST(DeepUmPolicy, UnprotectedPinnedBlockEndsTheCachedPrefix)
{
    // A prefetch in flight lands p after the fault batch {x, y, p}
    // pinned it, so p sits resident, pinned and unprotected until its
    // own fault command is served. The commands for x and y, ahead of
    // it, each need a victim meanwhile; the second walk passes the
    // protected x behind p. Once p is unpinned it is the victim, so
    // that walk must not have cached past p.
    CursorWorld w;
    WalkCounts counts;
    w.drv.setEvictionPolicy(
        std::make_unique<CheckedDeepUmPolicy>(w.pf, w.policy, counts));
    w.drv.registerRange(mem::kUmBase, 8 * mem::kBlockBytes);
    const mem::BlockId b0 = w.b0, p = b0 + 3, x = b0 + 4, y = b0 + 5;
    w.touch({b0, b0 + 1, b0 + 2});
    w.protect(1, {b0, b0 + 1, b0 + 2, x, y});
    ASSERT_TRUE(w.drv.enqueuePrefetch(p, 1));
    for (mem::BlockId b : {x, y, p})
        w.fb.push(gpu::FaultEntry{b, 512, false, w.eq.now()});
    w.drv.faultInterrupt();
    w.eq.run();
    // x and y each fell back to the oldest unpinned block, b0 then b1.
    EXPECT_EQ(counts.demand, 2);
    EXPECT_EQ(counts.fallback, 2);
    EXPECT_NE(w.drv.blockInfo(b0).loc, uvm::Loc::Device);
    EXPECT_NE(w.drv.blockInfo(b0 + 1).loc, uvm::Loc::Device);
    ASSERT_EQ(w.drv.blockInfo(p).loc, uvm::Loc::Device);
    ASSERT_FALSE(w.drv.isPinned(p));
    EXPECT_EQ(w.pick(), p);
}

} // namespace
