/**
 * @file
 * Unit tests for the UVM driver: range registration, the Figure-3
 * fault pipeline, least-recently-migrated eviction, the inactive
 * invalidation path, prefetch-queue priority, pre-eviction,
 * allocation-free steady-state fault handling, and the driver's SM
 * batch access path against the backend's default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "alloc_window.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "uvm/driver.hh"

using namespace deepum;
using namespace deepum::uvm;

namespace {

constexpr std::uint64_t kGpuPages = 4 * mem::kPagesPerBlock; // 4 blocks

struct World {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpuPages};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    Driver drv{eq, cfg, fb, link, frames, stats};

    World()
    {
        engine.setBackend(&drv);
        drv.setEngine(&engine);
    }

    /** Register @p blocks full UM blocks starting at block 0 VA. */
    mem::VAddr
    reg(std::uint64_t blocks, mem::VAddr base = mem::kUmBase)
    {
        drv.registerRange(base, blocks * mem::kBlockBytes);
        return base;
    }

    /** Run a one-kernel session touching @p blocks. */
    void
    touch(std::vector<mem::BlockId> blocks,
          sim::Tick compute = 100 * sim::kUsec)
    {
        kernel_.name = "touch";
        kernel_.computeNs = compute;
        kernel_.accesses.clear();
        for (auto b : blocks)
            kernel_.accesses.push_back(
                gpu::BlockAccess{b, 512, false});
        bool done = false;
        engine.launch(&kernel_, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }

    gpu::KernelInfo kernel_;
};

TEST(UvmDriver, RegisterCreatesPerBlockRecords)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    EXPECT_TRUE(w.drv.knowsBlock(b0));
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 1));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 2));
    EXPECT_EQ(w.drv.blockInfo(b0).pages, 512u);
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Unpopulated);
}

TEST(UvmDriver, TailBlockHasPartialPages)
{
    World w;
    w.drv.registerRange(mem::kUmBase,
                        mem::kBlockBytes + 5 * mem::kPageSize);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    EXPECT_EQ(w.drv.blockInfo(b0).pages, 512u);
    EXPECT_EQ(w.drv.blockInfo(b0 + 1).pages, 5u);
}

TEST(UvmDriverDeath, DoubleRegisterPanics)
{
    World w;
    w.reg(1);
    EXPECT_DEATH(w.drv.registerRange(mem::kUmBase, mem::kBlockBytes),
                 "already registered");
}

TEST(UvmDriverDeath, BlockInfoOfUnknownBlockPanics)
{
    World w;
    w.reg(1);
    // One past the only registered run: the dense-store probe must
    // miss and blockInfo must refuse to fabricate a record.
    EXPECT_DEATH(w.drv.blockInfo(mem::blockOf(mem::kUmBase) + 1),
                 "blockInfo: unknown block");
}

TEST(UvmDriverDeath, UnregisterOfUnknownRangePanics)
{
    World w;
    EXPECT_DEATH(
        w.drv.unregisterRange(mem::kUmBase, mem::kBlockBytes),
        "unregisterRange: unknown block");
}

TEST(UvmDriver, DenseStoreMissesOutsideRegisteredRuns)
{
    World w;
    w.reg(2, mem::kUmBase);
    w.reg(2, mem::kUmBase + 8 * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    // Probes inside either run resolve; the gap and both flanks miss.
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 1));
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 8));
    EXPECT_FALSE(w.drv.knowsBlock(b0 - 1));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 2));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 7));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 10));
    // Unknown blocks are unpinned, not an error.
    EXPECT_FALSE(w.drv.isPinned(b0 + 2));
}

TEST(UvmDriver, FirstTouchFaultsAndZeroFills)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.zeroFillBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 0u); // no HtoD copy
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 1024u);
    EXPECT_EQ(w.stats.get("uvm.replaysSent"), 1u);
    EXPECT_EQ(w.frames.usedPages(), 1024u);
}

TEST(UvmDriver, ResidentAccessDoesNotFault)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0});
    auto faults = w.stats.get("uvm.pageFaults");
    w.touch({b0});
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), faults);
}

/** Records every fault batch the driver dispatches. */
struct BatchRecorder : DriverListener {
    std::vector<std::vector<mem::BlockId>> batches;

    void
    onFaultBatch(const std::vector<mem::BlockId> &blocks) override
    {
        batches.push_back(blocks);
    }
};

TEST(UvmDriver, FaultBatchIsDedupedInFirstFaultOrder)
{
    World w;
    BatchRecorder rec;
    w.drv.addListener(&rec);
    mem::BlockId b0 = mem::blockOf(w.reg(3));
    const mem::BlockId b1 = b0 + 1, b2 = b0 + 2;
    w.fb.push(gpu::FaultEntry{b2, 1, false, 0});
    w.fb.push(gpu::FaultEntry{b0, 2, false, 0});
    w.fb.push(gpu::FaultEntry{b2, 4, false, 0});
    w.fb.push(gpu::FaultEntry{b1, 8, false, 0});
    w.fb.push(gpu::FaultEntry{b0, 16, false, 0});
    w.drv.faultInterrupt();
    w.eq.run();
    ASSERT_EQ(rec.batches.size(), 1u);
    EXPECT_EQ(rec.batches[0], (std::vector<mem::BlockId>{b2, b0, b1}));
    EXPECT_EQ(w.stats.get("uvm.faultedBlocks"), 3u);
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 1u + 2u + 4u + 8u + 16u);
}

TEST(UvmDriverDeath, FaultOnUnregisteredBlockPanics)
{
    World w;
    mem::BlockId b0 = mem::blockOf(w.reg(1));
    w.fb.push(gpu::FaultEntry{b0, 512, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 1, 512, false, 0});
    w.drv.faultInterrupt();
    EXPECT_DEATH(w.eq.run(), "fault on unregistered block");
}

TEST(UvmDriver, DroppedBlockBetweenDrainAndDispatchIsSkipped)
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

TEST(UvmDriverDeath, SecondBatchDuringPreprocessingPanics)
{
    // The GPU stalls until replay, so it never raises a batch while
    // the previous one is in preprocessing; the driver keeps that one
    // batch as its own state and refuses a second.
    World w;
    mem::BlockId b0 = mem::blockOf(w.reg(2));
    w.fb.push(gpu::FaultEntry{b0, 512, false, 0});
    w.drv.faultInterrupt();
    // The first batch drains at faultInterruptLatency and dispatches
    // at least faultPreprocessBase later; the second drains between.
    w.eq.schedule(w.cfg.faultInterruptLatency + 1, [&w, b0] {
        w.fb.push(gpu::FaultEntry{b0 + 1, 512, false, 0});
        w.drv.faultInterrupt();
    });
    EXPECT_DEATH(w.eq.run(), "previous batch is still in preprocessing");
}

TEST(UvmDriver, SteadyStateFaultHandlingDoesNotAllocate)
{
    World w;
    mem::BlockId b0 = mem::blockOf(w.reg(8));
    // Two kernels over disjoint halves of 8 blocks on the 4-block
    // GPU: each launch faults its 4 blocks in one batch, migrates
    // them, and evicts the other kernel's.
    gpu::KernelInfo kernels[2];
    for (int k = 0; k < 2; ++k) {
        kernels[k].name = "half";
        kernels[k].computeNs = 100 * sim::kUsec;
        for (int i = 0; i < 4; ++i)
            kernels[k].accesses.push_back(
                gpu::BlockAccess{b0 + 4 * k + i, 512, false});
    }
    int done = 0;
    auto launch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            w.engine.launch(&kernels[i % 2], [&done] { ++done; });
            w.eq.run();
        }
    };
    launch(2); // warm-up: first touch sizes the reused storage

    auto batches = w.stats.get("uvm.faultBatches");
    auto migrated = w.stats.get("uvm.migratedBlocks");
    auto evicted = w.stats.get("uvm.demandEvictions");
    std::size_t allocs = 0;
    {
        AllocWindow window;
        launch(8);
        allocs = window.count();
    }
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(done, 10);
    EXPECT_EQ(w.stats.get("uvm.faultBatches") - batches, 8u);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks") - migrated, 32u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions") - evicted, 32u);
}

TEST(UvmDriver, EvictionIsLeastRecentlyMigrated)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    // Fill the 4-block GPU in order b0..b3.
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Touching two more evicts the two oldest migrations: b0, b1.
    w.touch({b0 + 4, b0 + 5});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Host);
    EXPECT_EQ(w.drv.blockInfo(b0 + 1).loc, Loc::Host);
    EXPECT_EQ(w.drv.blockInfo(b0 + 2).loc, Loc::Device);
    EXPECT_EQ(w.drv.blockInfo(b0 + 4).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 2u);
}

TEST(UvmDriver, EvictedBlockReloadsWithCopyNotZeroFill)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.touch({b0 + 4, b0 + 5}); // evicts b0, b1
    auto zf = w.stats.get("uvm.zeroFillBlocks");
    w.touch({b0}); // reload from host
    EXPECT_EQ(w.stats.get("uvm.zeroFillBlocks"), zf);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 1u);
    EXPECT_EQ(w.stats.get("uvm.migratedPages"), 512u);
}

TEST(UvmDriver, InvalidationSkipsWriteback)
{
    World w;
    w.drv.setInvalidationEnabled(true);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Mark the first two blocks' bytes fully inactive (dead PT data).
    w.drv.markInactiveRange(va, 2 * mem::kBlockBytes, true);
    auto dtoh = w.link.bytesDtoH();
    w.touch({b0 + 4, b0 + 5}); // victims are b0, b1: invalidated
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 0u);
    EXPECT_EQ(w.link.bytesDtoH(), dtoh); // no copy-back
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Unpopulated);
}

TEST(UvmDriver, PartiallyInactiveBlockStillWritesBack)
{
    World w;
    w.drv.setInvalidationEnabled(true);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Only half of b0 is inactive: must not be invalidated.
    w.drv.markInactiveRange(va, mem::kBlockBytes / 2, true);
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Host);
}

TEST(UvmDriver, InvalidationDisabledAlwaysWritesBack)
{
    World w; // invalidation off by default (naive UM)
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.drv.markInactiveRange(va, 2 * mem::kBlockBytes, true);
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 1u);
}

TEST(UvmDriver, InactiveAccountingRoundTrips)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.markInactiveRange(va, mem::kBlockBytes, true);
    EXPECT_TRUE(w.drv.blockInfo(b0).fullyInactive());
    w.drv.markInactiveRange(va + 4096, 512, false);
    EXPECT_FALSE(w.drv.blockInfo(b0).fullyInactive());
    w.drv.markInactiveRange(va + 4096, 512, true);
    EXPECT_TRUE(w.drv.blockInfo(b0).fullyInactive());
}

TEST(UvmDriver, PrefetchMigratesWithoutFaults)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    EXPECT_TRUE(w.drv.enqueuePrefetch(b0, 0));
    EXPECT_FALSE(w.drv.enqueuePrefetch(b0, 0)); // duplicate rejected
    w.eq.run();
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_TRUE(w.drv.blockInfo(b0).prefetched);
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 0u);
    EXPECT_EQ(w.stats.get("uvm.prefetchCompleted"), 1u);
    // Rejected once resident, too.
    EXPECT_FALSE(w.drv.enqueuePrefetch(b0, 0));
}

TEST(UvmDriver, PrefetchOfUnknownBlockRejected)
{
    World w;
    EXPECT_FALSE(w.drv.enqueuePrefetch(12345, 0));
}

TEST(UvmDriver, AccessedPrefetchCountsUseful)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.enqueuePrefetch(b0, 0);
    w.eq.run();
    w.touch({b0});
    EXPECT_EQ(w.stats.get("uvm.prefetchUseful"), 1u);
    EXPECT_FALSE(w.drv.blockInfo(b0).prefetched);
}

TEST(UvmDriver, EvictedUnusedPrefetchCountsWasted)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.enqueuePrefetch(b0 + 5, 0); // never used
    w.eq.run();
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3}); // evicts the prefetch
    EXPECT_EQ(w.stats.get("uvm.prefetchWasted"), 1u);
}

TEST(UvmDriver, PreEvictionFreesFramesOffTheFaultPath)
{
    World w;
    mem::VAddr va = w.reg(5);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3}); // GPU full
    EXPECT_EQ(w.frames.freePages(), 0u);
    EXPECT_TRUE(w.drv.preEvictOne());
    EXPECT_FALSE(w.drv.preEvictOne()); // migration thread now busy
    w.eq.run();
    EXPECT_EQ(w.frames.freePages(), 512u);
    EXPECT_EQ(w.stats.get("uvm.preEvictions"), 1u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);
    // The next fault needs no eviction.
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);
}

TEST(UvmDriver, UnregisterReleasesResidentFrames)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1});
    EXPECT_EQ(w.frames.usedPages(), 1024u);
    w.drv.unregisterRange(va, 2 * mem::kBlockBytes);
    EXPECT_EQ(w.frames.usedPages(), 0u);
    EXPECT_FALSE(w.drv.knowsBlock(b0));
}

TEST(UvmDriver, FaultQueueHasPriorityOverPrefetchQueue)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    // Queue a slow prefetch, then fault on a different block. The
    // fault must be fully handled even though a prefetch was queued
    // first; the prefetched block also lands eventually.
    w.drv.enqueuePrefetch(b0 + 5, 0);
    w.touch({b0});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_EQ(w.drv.blockInfo(b0 + 5).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.replaysSent"), 1u);
}

/**
 * Refuses every non-demand request and counts the calls; demand
 * requests get the stock least-recently-migrated victim.
 */
class RefusingPolicy : public EvictionPolicy
{
  public:
    explicit RefusingPolicy(int &non_demand_calls)
        : nonDemandCalls_(non_demand_calls)
    {
    }

    mem::BlockId
    pickVictim(const Driver &drv, bool demand) override
    {
        if (!demand) {
            ++nonDemandCalls_;
            return kNoBlock;
        }
        return lru_.pickVictim(drv, demand);
    }

    const char *name() const override { return "refusing"; }

  private:
    int &nonDemandCalls_;
    LruMigratedPolicy lru_;
};

TEST(UvmDriver, EachPrefetchThatNeedsRoomAsksThePolicyOnce)
{
    World w;
    int calls = 0;
    w.drv.setEvictionPolicy(std::make_unique<RefusingPolicy>(calls));

    // Fill all but 256 frames: three full blocks and a 256-page tail.
    mem::VAddr va = mem::kUmBase;
    w.drv.registerRange(va, 3 * mem::kBlockBytes + 256 * mem::kPageSize);
    mem::BlockId a0 = mem::blockOf(va);
    w.touch({a0, a0 + 1, a0 + 2, a0 + 3});
    ASSERT_EQ(w.frames.freePages(), 256u);

    // K full blocks that need room, then a 100-page tail that fits,
    // all queued before the migration thread runs: one drain.
    constexpr int kNeedRoom = 5;
    mem::VAddr vb = va + 8 * mem::kBlockBytes;
    w.drv.registerRange(vb, kNeedRoom * mem::kBlockBytes +
                                100 * mem::kPageSize);
    mem::BlockId b0 = mem::blockOf(vb);
    for (int k = 0; k <= kNeedRoom; ++k)
        ASSERT_TRUE(w.drv.enqueuePrefetch(b0 + k, 0));
    w.eq.run();

    // Every prefetch that needs room asks once and is refused; the
    // one that fits in the free frames never asks.
    EXPECT_EQ(calls, kNeedRoom);
    EXPECT_EQ(w.stats.get("uvm.prefetchDropped"), std::uint64_t(kNeedRoom));
    for (int k = 0; k < kNeedRoom; ++k)
        EXPECT_NE(w.drv.blockInfo(b0 + k).loc, Loc::Device);
    EXPECT_EQ(w.drv.blockInfo(b0 + kNeedRoom).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.prefetchCompleted"), 1u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);

    // A new drain asks again.
    ASSERT_TRUE(w.drv.enqueuePrefetch(b0, 0));
    w.eq.run();
    EXPECT_EQ(calls, kNeedRoom + 1);
}

/** Logs the access path's listener calls, in order. */
struct AccessLog : DriverListener {
    /** (exec ID of a useful prefetch, or ~0 for a plain access; block) */
    std::vector<std::pair<std::uint32_t, mem::BlockId>> calls;

    void
    onBlockAccessed(mem::BlockId block) override
    {
        calls.emplace_back(~0u, block);
    }

    void
    onPrefetchUseful(mem::BlockId block, std::uint32_t exec_id) override
    {
        calls.emplace_back(exec_id, block);
    }
};

/** Forwards to a driver but keeps UvmBackend's default accessBatch. */
class DefaultAccessPath final : public gpu::UvmBackend
{
  public:
    explicit DefaultAccessPath(Driver &drv) : drv_(drv) {}

    bool
    isResident(mem::BlockId block) const override
    {
        return drv_.isResident(block);
    }
    void faultInterrupt() override { drv_.faultInterrupt(); }
    void
    onKernelBegin(const gpu::KernelInfo &k) override
    {
        drv_.onKernelBegin(k);
    }
    void
    onKernelEnd(const gpu::KernelInfo &k) override
    {
        drv_.onKernelEnd(k);
    }
    void
    onBlockAccess(mem::BlockId block) override
    {
        drv_.onBlockAccess(block);
    }

  private:
    Driver &drv_;
};

TEST(UvmDriver, AccessBatchMatchesTheDefaultImplementation)
{
    // Two identical drivers take the same random SM batches: one
    // through its own accessBatch, one through the default that a
    // forwarder inherits. Prefetches between batches move residency
    // and set prefetched bits, so useful-prefetch calls occur too.
    World wa, wb;
    AccessLog la, lb;
    wa.drv.addListener(&la);
    wb.drv.addListener(&lb);
    DefaultAccessPath fwd(wb.drv);
    mem::BlockId b0 = mem::blockOf(wa.reg(8));
    wb.reg(8);
    wa.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    wb.touch({b0, b0 + 1, b0 + 2, b0 + 3});

    sim::Rng rng(21);
    int ran = 0, faulted = 0, deduped = 0, useful = 0;
    for (int step = 0; step < 3000; ++step) {
        if (step % 25 == 0) {
            mem::BlockId p = b0 + rng.below(8);
            auto exec = static_cast<std::uint32_t>(step);
            EXPECT_EQ(wa.drv.enqueuePrefetch(p, exec),
                      wb.drv.enqueuePrefetch(p, exec));
            wa.eq.run();
            wb.eq.run();
            continue;
        }
        std::vector<gpu::BlockAccess> batch(1 + rng.below(10));
        for (gpu::BlockAccess &a : batch) {
            std::uint64_t pick = rng.below(100);
            // Mostly the 8 registered blocks (4 resident at a time),
            // sometimes a block no range covers.
            a.block = pick < 95 ? b0 + rng.below(8) : b0 + 40 + rng.below(3);
            a.pages = 1 + static_cast<std::uint32_t>(rng.below(512));
            a.write = rng.below(2) != 0;
        }
        std::size_t missing = 0, missing_distinct = 0;
        for (std::size_t k = 0; k < batch.size(); ++k) {
            if (wa.drv.isResident(batch[k].block))
                continue;
            ++missing;
            missing_distinct +=
                std::none_of(batch.begin(), batch.begin() + k,
                             [&](const gpu::BlockAccess &e) {
                                 return e.block == batch[k].block;
                             });
        }
        std::size_t before = la.calls.size();
        std::size_t na = wa.drv.accessBatch(batch, wa.eq.now(), wa.fb);
        std::size_t nb = fwd.accessBatch(batch, wb.eq.now(), wb.fb);
        ASSERT_EQ(na, nb) << "step " << step;
        ASSERT_EQ(na, missing_distinct) << "step " << step;
        ASSERT_EQ(wa.fb.size(), na) << "step " << step;
        ASSERT_EQ(wb.fb.size(), nb) << "step " << step;
        for (std::size_t k = 0; k < na; ++k) {
            const gpu::FaultEntry &ea = wa.fb.entries()[k];
            const gpu::FaultEntry &eb = wb.fb.entries()[k];
            EXPECT_EQ(ea.block, eb.block) << "step " << step;
            EXPECT_EQ(ea.pages, eb.pages) << "step " << step;
            EXPECT_EQ(ea.write, eb.write) << "step " << step;
            EXPECT_EQ(ea.raised, eb.raised) << "step " << step;
        }
        ASSERT_EQ(la.calls, lb.calls) << "step " << step;
        std::size_t plain = 0;
        for (std::size_t k = before; k < la.calls.size(); ++k) {
            plain += la.calls[k].first == ~0u;
            useful += la.calls[k].first != ~0u;
        }
        // A batch that faults records nothing; one that runs records
        // every access.
        EXPECT_EQ(plain, na == 0 ? batch.size() : 0u) << "step " << step;
        ran += na == 0;
        faulted += na != 0;
        deduped += missing > missing_distinct;
        wa.fb.clear();
        wb.fb.clear();
    }
    EXPECT_EQ(wa.stats.get("uvm.prefetchUseful"),
              wb.stats.get("uvm.prefetchUseful"));
    EXPECT_GT(ran, 100);
    EXPECT_GT(faulted, 100);
    EXPECT_GT(deduped, 10);
    EXPECT_GT(useful, 10);
}

TEST(UvmDriver, DirtyEvictionTrafficIsSymmetric)
{
    World w;
    mem::VAddr va = w.reg(8, mem::kUmBase);
    mem::BlockId b0 = mem::blockOf(va);
    // Two rounds over 8 blocks on a 4-block GPU: every block cycles.
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.touch({b0 + 4, b0 + 5, b0 + 6, b0 + 7});
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // 4 blocks were written back and 4 reloaded in the last step.
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"),
              w.stats.get("uvm.migratedBlocks") + 4u);
}

} // namespace
