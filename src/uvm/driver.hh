/**
 * @file
 * The Unified Memory driver model.
 *
 * Implements the NVIDIA fault-handling pipeline of paper Figure 3:
 * fetch fault-buffer entries, preprocess (dedupe + group by UM
 * block), check device space, evict when full, populate, transfer,
 * map, replay. Running it bare gives the "naive UM" baseline; the
 * DeepUM components in core/ attach through DriverListener hooks,
 * the prefetch queue, the pluggable eviction policy, and the
 * inactive-range interface — exactly the surfaces the paper's kernel
 * module hooks in the real driver.
 *
 * Two "kernel threads" are modelled as DES actors:
 *  - the fault-handling thread (drain buffer -> fault queue, replay),
 *  - the migration thread (serves the fault queue first, then the
 *    prefetch queue; owns the PCIe link).
 * Each has at most one pending event, so what that event needs is
 * driver state, and every event captures `this` alone: the fault
 * batch in preprocessing is batch_ (the GPU stalls until replay, so
 * a second batch cannot be drained before the first is dispatched),
 * and the migration whose completion is pending is inFlight_ (one
 * at a time, migBusy_).
 *
 * Per-block metadata lives in a dense BlockStore (block_store.hh):
 * a block's slab index is its offset in the UM heap, the LRU is
 * intrusive indices inside BlockInfo, and "pinned by an outstanding
 * fault" is a bit in the record plus a counter — no hashing anywhere
 * on the fault path.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "gpu/backend.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "gpu/timing.hh"
#include "mem/frame_pool.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/spsc_queue.hh"
#include "sim/stats.hh"
#include "uvm/block_info.hh"
#include "uvm/block_store.hh"
#include "uvm/eviction_policy.hh"
#include "uvm/listener.hh"

namespace deepum::sim {
class CheckContext;
class Validator;
}

namespace deepum::uvm {

class ProvenanceLedger;

/** A queued migration request. */
struct MigrateCmd {
    mem::BlockId block = kNoBlock;
    std::uint32_t execId = 0; ///< predicted consumer (prefetch only)
    std::uint32_t depth = 0;  ///< prefetch chain depth (0 = current)
};

/** The UM driver: fault handling, migration, eviction. */
class Driver : public sim::SimObject, public gpu::UvmBackend
{
  public:
    Driver(sim::EventQueue &eq, const gpu::TimingConfig &cfg,
           gpu::FaultBuffer &fb, gpu::PcieLink &link,
           mem::FramePool &frames, sim::StatSet &stats);
    ~Driver() override;

    /** Attach the GPU engine (for replay signals). */
    void setEngine(gpu::GpuEngine *engine) { engine_ = engine; }

    /** Attach an observer; observers outlive the driver's runs. */
    void addListener(DriverListener *l) { listeners_.push_back(l); }

    /** Replace the eviction policy (default: LruMigratedPolicy). */
    void setEvictionPolicy(std::unique_ptr<EvictionPolicy> p);

    /** Enable/disable the inactive-PT-block invalidation path. */
    void setInvalidationEnabled(bool on) { invalidationEnabled_ = on; }

    /** Accepts only 1; kept for perfbench/src/traced_stack.cc. */
    void
    setServiceThreads(unsigned n)
    {
        DEEPUM_ASSERT(n == 1, "fault batches are serviced on one thread");
    }

    /**
     * Attach (or detach with nullptr) the provenance ledger. Like
     * the tracer, null (the default) means every hook site is a
     * plain pointer check and runs stay bit-identical to a build
     * without the feature.
     */
    void setLedger(ProvenanceLedger *l) { ledger_ = l; }

    // --- address-space management (called via the runtime) ---------

    /** A UM allocation appeared; create block records for it. */
    void registerRange(mem::VAddr va, std::uint64_t bytes);

    /** A UM allocation was freed; drop its blocks and frames. */
    void unregisterRange(mem::VAddr va, std::uint64_t bytes);

    /**
     * PyTorch marked [va, va+bytes) (in)active (paper Section 5.2).
     * Adjusts per-block inactive page counts used for invalidation.
     */
    void markInactiveRange(mem::VAddr va, std::uint64_t bytes,
                           bool inactive);

    // --- prefetch interface (used by core::Prefetcher) -------------

    /**
     * Enqueue a prefetch command. @p depth is the chain depth the
     * prediction was made at (0 = the running kernel; ledger input).
     * @return false if dropped (full queue, already resident/queued,
     * or unknown block). For callers without the block's store slot
     * (the runtime's memPrefetchAsync, tests); the chain walk has it.
     */
    bool
    enqueuePrefetch(mem::BlockId block, std::uint32_t exec_id,
                    std::uint32_t depth = 0)
    {
        return enqueuePrefetchAt(store_.find(block), block, exec_id, depth);
    }

    /**
     * enqueuePrefetch() for a block whose store slot @p i the caller
     * has already resolved (store().find(), kNoBlockIndex when
     * unknown), so that a chain step looks its block up once. The
     * reject test is inline: most chain issues end at its flags.
     *
     * The prefetcher's DEEPUM_NOALLOC chain walk prunes at the
     * out-of-line push: the command ring grows only until it reaches
     * the deepest queue the run needs (at most its bound), and the
     * residual drain event / tracer counter it may arm are amortized
     * or opt-in, not per-command costs.
     */
    DEEPUM_NOALLOC bool
    enqueuePrefetchAt(BlockIndex i, mem::BlockId block,
                      std::uint32_t exec_id, std::uint32_t depth)
    {
        if (i == kNoBlockIndex)
            return false;
        const BlockInfo &bi = store_.at(i);
        if (bi.loc == Loc::Device || bi.queuedPrefetch || bi.queuedFault)
            return false;
        return pushPrefetch(i, block, exec_id, depth);
    }

    /** Commands waiting in the prefetch queue. */
    std::size_t prefetchQueueDepth() const { return prefetchQueue_.size(); }

    /** Commands waiting in the fault queue. */
    std::size_t faultQueueDepth() const { return faultQueue_.size(); }

    // --- pre-eviction interface (used by core::PreEvictor) ---------

    /**
     * Evict one victim off the fault path if the migration thread is
     * idle. @return true if an eviction was started.
     */
    bool preEvictOne();

    // --- queries ----------------------------------------------------

    /** Per-block info; panics on unknown block. */
    const BlockInfo &blockInfo(mem::BlockId b) const;

    /** True if the driver manages @p b. */
    bool knowsBlock(mem::BlockId b) const { return store_.contains(b); }

    /** The dense block store (policies iterate it by index). */
    const BlockStore &store() const { return store_; }

    /** Resident blocks in migration order (oldest first). */
    BlockStore::LruView lruOrder() const { return store_.lruOrder(); }

    /** Blocks pinned by in-flight fault handling. */
    bool
    isPinned(mem::BlockId b) const
    {
        BlockIndex i = store_.find(b);
        return i != kNoBlockIndex && store_.at(i).pinned;
    }

    mem::FramePool &frames() { return frames_; }
    const mem::FramePool &frames() const { return frames_; }
    const gpu::TimingConfig &timing() const { return cfg_; }

    // --- validation (sim/validate.hh) -------------------------------

    /**
     * Attach the validator that DEEPUM_VALIDATE builds re-run after
     * every fault batch and kernel retirement (null detaches; no-op
     * call sites in non-validate builds).
     */
    void setValidator(sim::Validator *v) { validator_ = v; }

    /**
     * Audit the residency bookkeeping: the BlockStore slab itself
     * (state bytes, live count, intrusive links), per-block
     * residency vs the FramePool counts (with in-flight migrations
     * accounted), LRU membership/migrateSeq order, the pinned-bit
     * counter, and queued-flag vs queue-content agreement.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the block table and queues (for violation dumps). */
    void dumpState(std::ostream &os) const;

    // --- gpu::UvmBackend --------------------------------------------

    bool isResident(mem::BlockId block) const override;
    void faultInterrupt() override;
    void onKernelBegin(const gpu::KernelInfo &k) override;
    void onKernelEnd(const gpu::KernelInfo &k) override;
    void onBlockAccess(mem::BlockId block) override;

    /**
     * UvmBackend::accessBatch, with one inline store probe per access
     * for residency and a direct (non-virtual) access record.
     */
    std::size_t accessBatch(std::span<const gpu::BlockAccess> batch,
                            sim::Tick now, gpu::FaultBuffer &fb) override;

  private:
    /** Queue a prefetch that passed enqueuePrefetchAt()'s test. */
    DEEPUM_ALLOC_OK("command ring grows to its bound once; drain event "
                    "and tracing are amortized or opt-in")
    bool pushPrefetch(BlockIndex i, mem::BlockId block,
                      std::uint32_t exec_id, std::uint32_t depth);

    /** Fault-handling thread body: fetch + preprocess batch_. */
    void handleFaults();

    /** Preprocessing done: queue batch_'s faults, then clear it. */
    void dispatchFaultBatch();

    /** Migration thread body: serve one command, then reschedule. */
    void migrationStep();

    /** inFlight_'s transfer landed: map the block, then go on. */
    void finishMigration();

    /**
     * Evict victims until @p pages frames are free.
     * @param t running completion time (advanced per eviction)
     * @param demand true when on the fault critical path
     * @return false if no progress is possible (nothing evictable)
     */
    bool makeRoom(std::uint64_t pages, sim::Tick &t, bool demand);

    /** Evict one specific block; advances @p t by the eviction cost. */
    void evictBlock(mem::BlockId victim, sim::Tick &t, bool demand);

    /** A demand-faulted block became resident (or already was). */
    void resolveFault(mem::BlockId b);

    /** Replay the stalled GPU after replayLatency (once). */
    void requestReplay();

    /** Clear @p bi's pinned bit (no-op when clear). */
    void
    unpin(BlockInfo &bi)
    {
        if (bi.pinned) {
            bi.pinned = false;
            --pinnedCount_;
        }
    }

    const gpu::TimingConfig &cfg_;
    gpu::FaultBuffer &fb_;
    gpu::PcieLink &link_;
    mem::FramePool &frames_;
    gpu::GpuEngine *engine_ = nullptr;

    BlockStore store_;

    sim::SpscQueue<MigrateCmd> faultQueue_;
    sim::SpscQueue<MigrateCmd> prefetchQueue_;

    std::vector<DriverListener *> listeners_;
    std::unique_ptr<EvictionPolicy> policy_;
    sim::Validator *validator_ = nullptr;
    ProvenanceLedger *ledger_ = nullptr;

    bool invalidationEnabled_ = false;
    bool faultHandlerPending_ = false;
    bool migBusy_ = false;
    bool replayPending_ = false;
    std::uint64_t migrateSeq_ = 0;
    /** Blocks with the pinned bit set (outstanding demand faults). */
    std::uint64_t pinnedCount_ = 0;

    /** The migration whose completion event is pending. */
    struct Migration {
        MigrateCmd cmd;
        /** Frames reserved for it; 0 when none is in flight. */
        std::uint32_t pages = 0;
        bool demand = false;
        bool htod = false; ///< a host copy, not a zero-fill
    };
    Migration inFlight_;

    /**
     * Epoch-stamped per-batch fault dedupe, keyed by slab index: a
     * slot seen in the current epoch is a duplicate. Replaces a
     * per-batch hash set with one array read/write per entry.
     */
    std::vector<std::uint64_t> faultSeen_;
    std::uint64_t faultEpoch_ = 0;

    /**
     * The deduped blocks of the fault batch in preprocessing, in
     * first-fault order; empty otherwise. Reused, so it keeps its
     * capacity.
     */
    std::vector<mem::BlockId> batch_;

    // Statistics (paper Table 5, Figure 10 inputs).
    sim::Scalar pageFaults_;
    sim::Scalar faultBatches_;
    sim::Scalar faultedBlocks_;
    sim::Scalar migratedBlocks_;
    sim::Scalar migratedPages_;
    sim::Scalar zeroFillBlocks_;
    sim::Scalar evictedBlocks_;
    sim::Scalar evictedPages_;
    sim::Scalar invalidatedBlocks_;
    sim::Scalar demandEvictions_;
    sim::Scalar preEvictions_;
    sim::Scalar prefetchIssued_;
    sim::Scalar prefetchCompleted_;
    sim::Scalar prefetchDropped_;
    sim::Scalar prefetchUseful_;
    sim::Scalar prefetchWasted_;
    sim::Scalar replaysSent_;

    // Distributions (paper Table 5 / Figures 9-13 raw series).
    sim::Distribution faultBatchSize_;
    sim::Distribution migrationLatency_;
};

} // namespace deepum::uvm
