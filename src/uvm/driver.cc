#include "uvm/driver.hh"

#include <ostream>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sim/validate.hh"
#include "uvm/provenance.hh"

#ifdef DEEPUM_VALIDATE
#define DEEPUM_VALIDATE_HOOK(where)                                    \
    do {                                                               \
        if (validator_ != nullptr)                                     \
            validator_->runAll(where);                                 \
    } while (0)
#else
#define DEEPUM_VALIDATE_HOOK(where)                                    \
    do {                                                               \
    } while (0)
#endif

namespace deepum::uvm {

namespace {

/// Depth of the demand fault queue (blocks, deduped).
constexpr std::size_t kFaultQueueDepth = 8192;

/// Depth of the prefetch queue; overflow is counted and dropped.
constexpr std::size_t kPrefetchQueueDepth = 1 << 16;

} // namespace

Driver::Driver(sim::EventQueue &eq, const gpu::TimingConfig &cfg,
               gpu::FaultBuffer &fb, gpu::PcieLink &link,
               mem::FramePool &frames, sim::StatSet &stats)
    : SimObject(eq, "uvm.driver"),
      cfg_(cfg),
      fb_(fb),
      link_(link),
      frames_(frames),
      faultQueue_(kFaultQueueDepth),
      prefetchQueue_(kPrefetchQueueDepth),
      policy_(std::make_unique<LruMigratedPolicy>()),
      pageFaults_(stats, "uvm.pageFaults",
                  "pages covered by faulted accesses"),
      faultBatches_(stats, "uvm.faultBatches",
                    "fault-buffer drain/preprocess passes"),
      faultedBlocks_(stats, "uvm.faultedBlocks",
                     "deduped faulted UM blocks"),
      migratedBlocks_(stats, "uvm.migratedBlocks",
                      "UM blocks migrated host->device"),
      migratedPages_(stats, "uvm.migratedPages",
                     "pages migrated host->device"),
      zeroFillBlocks_(stats, "uvm.zeroFillBlocks",
                      "blocks populated by zero-fill (first touch)"),
      evictedBlocks_(stats, "uvm.evictedBlocks",
                     "UM blocks written back device->host"),
      evictedPages_(stats, "uvm.evictedPages",
                    "pages written back device->host"),
      invalidatedBlocks_(stats, "uvm.invalidatedBlocks",
                         "victim blocks dropped without write-back"),
      demandEvictions_(stats, "uvm.demandEvictions",
                       "evictions on the fault critical path"),
      preEvictions_(stats, "uvm.preEvictions",
                    "evictions performed off the fault path"),
      prefetchIssued_(stats, "uvm.prefetchIssued",
                      "prefetch commands accepted into the queue"),
      prefetchCompleted_(stats, "uvm.prefetchCompleted",
                         "prefetch migrations completed"),
      prefetchDropped_(stats, "uvm.prefetchDropped",
                       "prefetch commands dropped as stale/duplicate"),
      prefetchUseful_(stats, "uvm.prefetchUseful",
                      "prefetched blocks later touched by the GPU"),
      prefetchWasted_(stats, "uvm.prefetchWasted",
                      "prefetched blocks evicted before any use"),
      replaysSent_(stats, "uvm.replaysSent",
                   "replay signals sent to the GPU"),
      faultBatchSize_(stats, "uvm.faultBatchSize",
                      "deduped faulted blocks per fault batch"),
      migrationLatency_(stats, "uvm.migrationLatency",
                        "ticks from migration dequeue to completion")
{
}

Driver::~Driver() = default;

void
Driver::setEvictionPolicy(std::unique_ptr<EvictionPolicy> p)
{
    DEEPUM_ASSERT(p != nullptr, "null eviction policy");
    policy_ = std::move(p);
}

// --------------------------------------------------------------------
// Address-space management
// --------------------------------------------------------------------

void
Driver::registerRange(mem::VAddr va, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    mem::BlockId first = mem::firstBlock(va, bytes);
    mem::BlockId end = mem::endBlock(va, bytes);
    BlockIndex base = store_.registerRun(first, end);
    BlockIndex i = base;
    for (mem::BlockId b = first; b != end; ++b, ++i)
        store_.at(i).pages = static_cast<std::uint32_t>(
            mem::pagesInBlock(b, va, bytes));
}

void
Driver::unregisterRange(mem::VAddr va, std::uint64_t bytes)
{
    mem::BlockId first = mem::firstBlock(va, bytes);
    mem::BlockId end = mem::endBlock(va, bytes);
    if (first == end)
        return;
    for (mem::BlockId b = first; b != end; ++b) {
        BlockIndex i = store_.find(b);
        if (i == kNoBlockIndex)
            sim::panic("unregisterRange: unknown block %llu",
                       static_cast<unsigned long long>(b));
        BlockInfo &bi = store_.at(i);
        if (ledger_ != nullptr)
            ledger_->onBlockFreed(b, curTick(),
                                  bi.loc == Loc::Device);
        if (bi.loc == Loc::Device) {
            frames_.release(bi.pages);
            store_.lruErase(i);
        }
        unpin(bi);
    }
    store_.unregisterRun(first, end);
    for (auto *l : listeners_)
        l->onRangeUnregistered(first, end);
}

void
Driver::markInactiveRange(mem::VAddr va, std::uint64_t bytes,
                          bool inactive)
{
    if (bytes == 0)
        return;
    for (mem::BlockId b = mem::firstBlock(va, bytes),
                      e = mem::endBlock(va, bytes);
         b != e; ++b) {
        BlockIndex i = store_.find(b);
        if (i == kNoBlockIndex)
            sim::panic("markInactiveRange: unknown block %llu",
                       static_cast<unsigned long long>(b));
        BlockInfo &bi = store_.at(i);
        std::uint64_t n = mem::bytesInBlock(b, va, bytes);
        if (inactive) {
            bi.inactiveBytes += n;
            DEEPUM_ASSERT(bi.inactiveBytes <=
                              std::uint64_t(bi.pages) * mem::kPageSize,
                          "inactive bytes exceed block bytes");
        } else {
            DEEPUM_ASSERT(bi.inactiveBytes >= n,
                          "activating bytes that were not inactive");
            bi.inactiveBytes -= n;
        }
    }
}

// --------------------------------------------------------------------
// Prefetch and pre-eviction interfaces
// --------------------------------------------------------------------

bool
Driver::pushPrefetch(BlockIndex i, mem::BlockId block,
                     std::uint32_t exec_id, std::uint32_t depth)
{
    if (!prefetchQueue_.push(MigrateCmd{block, exec_id, depth}))
        return false;
    store_.at(i).queuedPrefetch = true;
    ++prefetchIssued_;
    if (auto *tr = eventq().tracer())
        tr->counter(sim::Track::PrefetchQueue, "prefetchQueueDepth",
                    curTick(), prefetchQueue_.size());
    if (!migBusy_) {
        migBusy_ = true;
        scheduleIn(0, [this] { migrationStep(); });
    }
    return true;
}

bool
Driver::preEvictOne()
{
    if (migBusy_ || !faultQueue_.empty() || !prefetchQueue_.empty())
        return false;
    mem::BlockId victim = policy_->pickVictim(*this, /*demand=*/false);
    if (victim == kNoBlock)
        return false;

    migBusy_ = true;
    sim::Tick t = curTick();
    evictBlock(victim, t, /*demand=*/false);
    ++preEvictions_;
    eventq().schedule(t, [this] {
        migBusy_ = false;
        if (!faultQueue_.empty() || !prefetchQueue_.empty()) {
            migBusy_ = true;
            migrationStep();
        } else {
            for (auto *l : listeners_)
                l->onMigrationIdle();
        }
    });
    return true;
}

// --------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------

const BlockInfo &
Driver::blockInfo(mem::BlockId b) const
{
    BlockIndex i = store_.find(b);
    if (i == kNoBlockIndex)
        sim::panic("blockInfo: unknown block %llu",
                   static_cast<unsigned long long>(b));
    return store_.at(i);
}

// --------------------------------------------------------------------
// gpu::UvmBackend
// --------------------------------------------------------------------

bool
Driver::isResident(mem::BlockId block) const
{
    BlockIndex i = store_.find(block);
    return i != kNoBlockIndex && store_.at(i).loc == Loc::Device;
}

void
Driver::faultInterrupt()
{
    if (faultHandlerPending_)
        return;
    faultHandlerPending_ = true;
    scheduleIn(cfg_.faultInterruptLatency, [this] { handleFaults(); });
}

void
Driver::onKernelBegin(const gpu::KernelInfo &k)
{
    if (ledger_ != nullptr)
        ledger_->onKernelBegin(curTick());
    for (auto *l : listeners_)
        l->onKernelBegin(k);
}

void
Driver::onKernelEnd(const gpu::KernelInfo &k)
{
    for (auto *l : listeners_)
        l->onKernelEnd(k);
    DEEPUM_VALIDATE_HOOK("kernel-end");
}

void
Driver::onBlockAccess(mem::BlockId block)
{
    BlockIndex i = store_.find(block);
    if (i == kNoBlockIndex)
        return;
    BlockInfo &bi = store_.at(i);
    if (bi.prefetched) {
        bi.prefetched = false;
        ++prefetchUseful_;
        if (ledger_ != nullptr)
            ledger_->onPrefetchTouched(block, curTick());
        for (auto *l : listeners_)
            l->onPrefetchUseful(block, bi.prefetchExecId);
    }
    for (auto *l : listeners_)
        l->onBlockAccessed(block);
}

std::size_t
Driver::accessBatch(std::span<const gpu::BlockAccess> batch, sim::Tick now,
                    gpu::FaultBuffer &fb)
{
    // Qualified calls: no virtual dispatch, and both inline here.
    return runBatch(
        batch, now, fb,
        [this](mem::BlockId b) { return Driver::isResident(b); },
        [this](mem::BlockId b) { Driver::onBlockAccess(b); });
}

// --------------------------------------------------------------------
// Fault-handling thread
// --------------------------------------------------------------------

void
Driver::handleFaults()
{
    faultHandlerPending_ = false;
    const std::vector<gpu::FaultEntry> &entries = fb_.entries();
    if (entries.empty())
        return;
    if (!batch_.empty())
        sim::panic("fault batch drained while the previous batch is "
                   "still in preprocessing");

    ++faultBatches_;

    // Step 2 of Figure 3: dedupe entries and group them by UM block,
    // preserving first-fault order. The dedupe is an epoch-stamped
    // array keyed by slab index — bumping the epoch is the O(1)
    // "clear" between batches.
    if (faultSeen_.size() < store_.slabSize())
        faultSeen_.resize(store_.slabSize(), 0);
    ++faultEpoch_;
    std::uint64_t pages = 0;
    for (const auto &e : entries) {
        pages += e.pages;
        BlockIndex i = store_.find(e.block);
        if (i == kNoBlockIndex)
            sim::panic("fault on unregistered block %llu",
                       static_cast<unsigned long long>(e.block));
        if (faultSeen_[i] != faultEpoch_) {
            faultSeen_[i] = faultEpoch_;
            batch_.push_back(e.block);
        }
    }
    pageFaults_ += pages;
    faultedBlocks_ += batch_.size();
    faultBatchSize_.sample(batch_.size());

    sim::Tick cost = cfg_.faultFetchPerEntry * entries.size() +
                     cfg_.faultPreprocessBase +
                     cfg_.faultPreprocessPerBlock * batch_.size();

    if (auto *tr = eventq().tracer())
        tr->duration(sim::Track::FaultHandler, "faultBatch",
                     curTick(), curTick() + cost,
                     {sim::Tracer::arg("entries",
                                       std::uint64_t(entries.size())),
                      sim::Tracer::arg("blocks",
                                       std::uint64_t(batch_.size())),
                      sim::Tracer::arg("pages", pages)});
    fb_.clear();

    scheduleIn(cost, [this] { dispatchFaultBatch(); });
}

void
Driver::dispatchFaultBatch()
{
    for (auto *l : listeners_)
        l->onFaultBatch(batch_);

    for (mem::BlockId b : batch_) {
        // Re-probe: a listener or a queued free may have dropped
        // the block between drain and dispatch (other events run
        // during the modelled preprocess delay), so a missing
        // block is stale, not fatal — skip it.
        BlockIndex i = store_.find(b);
        if (i == kNoBlockIndex)
            continue;
        BlockInfo &bi = store_.at(i);
        if (bi.loc == Loc::Device)
            continue; // a prefetch landed it meanwhile
        if (ledger_ != nullptr)
            ledger_->onDemandFault(b, curTick());
        if (!bi.pinned) {
            bi.pinned = true;
            ++pinnedCount_;
        }
        if (!bi.queuedFault) {
            bool ok = faultQueue_.push(MigrateCmd{b, 0});
            DEEPUM_ASSERT(ok, "fault queue overflow");
            bi.queuedFault = true;
        }
    }
    batch_.clear();
    if (auto *tr = eventq().tracer())
        tr->counter(sim::Track::FaultHandler, "faultQueueDepth",
                    curTick(), faultQueue_.size());
    DEEPUM_VALIDATE_HOOK("fault-batch");

    if (pinnedCount_ == 0) {
        // Everything already resident: replay immediately.
        requestReplay();
        return;
    }

    if (!migBusy_) {
        migBusy_ = true;
        scheduleIn(0, [this] { migrationStep(); });
    }
}

void
Driver::resolveFault(mem::BlockId b)
{
    BlockIndex i = store_.find(b);
    if (i != kNoBlockIndex)
        unpin(store_.at(i));
    if (pinnedCount_ == 0)
        requestReplay();
}

void
Driver::requestReplay()
{
    if (engine_ == nullptr || !engine_->stalled() || replayPending_)
        return;
    replayPending_ = true;
    scheduleIn(cfg_.replayLatency, [this] {
        replayPending_ = false;
        ++replaysSent_;
        engine_->replay();
    });
}

// --------------------------------------------------------------------
// Migration thread
// --------------------------------------------------------------------

void
Driver::migrationStep()
{
    for (;;) {
        MigrateCmd cmd;
        bool demand;
        if (faultQueue_.pop(cmd)) {
            demand = true;
        } else if (prefetchQueue_.pop(cmd)) {
            demand = false;
        } else {
            migBusy_ = false;
            for (auto *l : listeners_)
                l->onMigrationIdle();
            return;
        }

        BlockIndex idx = store_.find(cmd.block);
        if (idx == kNoBlockIndex) {
            // Freed while queued.
            if (!demand)
                ++prefetchDropped_;
            continue;
        }
        BlockInfo &bi = store_.at(idx);
        if (demand)
            bi.queuedFault = false;
        else
            bi.queuedPrefetch = false;

        if (bi.loc == Loc::Device) {
            if (demand)
                resolveFault(cmd.block);
            else
                ++prefetchDropped_;
            continue;
        }

        // Steps 3-7 of Figure 3: space check, eviction, populate,
        // transfer, map.
        sim::Tick t0 = curTick();
        sim::Tick t = t0;
        if (!makeRoom(bi.pages, t, demand)) {
            if (demand) {
                sim::panic("no evictable block for a demand fault "
                           "(GPU memory too small for one batch?)");
            }
            // Drop the prefetch: everything resident is protected.
            ++prefetchDropped_;
            continue;
        }
        bool ok = frames_.reserve(bi.pages);
        DEEPUM_ASSERT(ok, "frame reservation failed after makeRoom");

        bool htod = (bi.loc == Loc::Host);
        std::uint32_t pages = bi.pages;
        inFlight_ = Migration{cmd, pages, demand, htod};
        if (htod) {
            std::uint64_t bytes = std::uint64_t(pages) * mem::kPageSize;
            // Fault-path migration moves fault-granularity chunks,
            // each with a handling round trip (see TimingConfig); a
            // prefetch is one driver-initiated bulk copy.
            t = demand ? link_.acquireChunked(t, bytes,
                                              cfg_.demandChunkBytes,
                                              cfg_.demandChunkOverhead,
                                              gpu::Dir::HostToDev)
                       : link_.acquire(t, bytes, gpu::Dir::HostToDev);
        } else {
            t += cfg_.zeroFillPerPage * pages;
        }
        t += cfg_.mapBlock;

        migrationLatency_.sample(t - t0);
        if (auto *tr = eventq().tracer()) {
            tr->duration(
                sim::Track::Migration, "migrate", t0, t,
                {sim::Tracer::arg("phase",
                                  demand ? "demand" : "prefetch"),
                 sim::Tracer::arg("kind", htod ? "copy" : "zerofill"),
                 sim::Tracer::arg("block", cmd.block),
                 sim::Tracer::arg("pages", std::uint64_t(pages))});
            tr->counter(sim::Track::FaultHandler, "faultQueueDepth",
                        curTick(), faultQueue_.size());
            tr->counter(sim::Track::PrefetchQueue,
                        "prefetchQueueDepth", curTick(),
                        prefetchQueue_.size());
        }

        eventq().schedule(t, [this] { finishMigration(); });
        return; // busy until the completion event fires
    }
}

void
Driver::finishMigration()
{
    const Migration m = inFlight_;
    DEEPUM_ASSERT(m.pages != 0, "no migration in flight");
    inFlight_.pages = 0;
    mem::BlockId b = m.cmd.block;
    BlockIndex i = store_.find(b);
    if (i == kNoBlockIndex) {
        // Freed mid-flight: hand the frames back.
        frames_.release(m.pages);
    } else {
        BlockInfo &info = store_.at(i);
        info.loc = Loc::Device;
        info.migrateSeq = ++migrateSeq_;
        info.prefetched = !m.demand;
        info.prefetchExecId = m.cmd.execId;
        store_.lruPushBack(i);
        if (m.htod) {
            ++migratedBlocks_;
            migratedPages_ += m.pages;
        } else {
            ++zeroFillBlocks_;
        }
        if (!m.demand)
            ++prefetchCompleted_;
        if (ledger_ != nullptr)
            ledger_->onArrival(b,
                               m.demand ? ArrivalCause::DemandFault
                                        : ArrivalCause::Prefetch,
                               m.cmd.execId, m.cmd.depth, curTick());
        for (auto *l : listeners_)
            l->onBlockMigrated(b, !m.demand);
        if (m.demand)
            resolveFault(b);
    }
    migrationStep();
}

bool
Driver::makeRoom(std::uint64_t pages, sim::Tick &t, bool demand)
{
    while (frames_.freePages() < pages) {
        mem::BlockId victim = policy_->pickVictim(*this, demand);
        if (victim == kNoBlock)
            return false;
        evictBlock(victim, t, demand);
    }
    return true;
}

void
Driver::evictBlock(mem::BlockId victim, sim::Tick &t, bool demand)
{
    BlockIndex i = store_.find(victim);
    DEEPUM_ASSERT(i != kNoBlockIndex, "evicting unknown block");
    BlockInfo &bi = store_.at(i);
    DEEPUM_ASSERT(bi.loc == Loc::Device, "evicting non-resident block");
    DEEPUM_ASSERT(!bi.pinned, "evicting a pinned block");

    store_.lruErase(i);

    sim::Tick evict_start = t;

    if (bi.prefetched) {
        bi.prefetched = false;
        ++prefetchWasted_;
        for (auto *l : listeners_)
            l->onPrefetchWasted(victim, bi.prefetchExecId);
    }

    bool invalidate = invalidationEnabled_ && bi.fullyInactive();
    if (invalidate) {
        // Paper Section 5.2: the pages hold dead PyTorch pool data;
        // unmap and drop them instead of copying back.
        t += cfg_.mapBlock;
        bi.loc = Loc::Unpopulated;
        ++invalidatedBlocks_;
    } else {
        std::uint64_t bytes = std::uint64_t(bi.pages) * mem::kPageSize;
        // Eviction inside the fault handler moves data at fault
        // granularity with handling round trips — the expensive
        // critical-path work pre-eviction exists to avoid (paper
        // Section 5.1).
        t = demand ? link_.acquireChunked(t, bytes, cfg_.demandChunkBytes,
                                          cfg_.demandChunkOverhead,
                                          gpu::Dir::DevToHost)
                   : link_.acquire(t, bytes, gpu::Dir::DevToHost);
        t += cfg_.mapBlock;
        bi.loc = Loc::Host;
        ++evictedBlocks_;
        evictedPages_ += bi.pages;
    }
    frames_.release(bi.pages);
    if (demand)
        ++demandEvictions_;
    if (ledger_ != nullptr)
        ledger_->onDeparture(victim,
                             invalidate ? DepartureCause::Invalidate
                             : demand   ? DepartureCause::DemandEvict
                                        : DepartureCause::PreEvict,
                             t);
    if (auto *tr = eventq().tracer())
        tr->duration(
            sim::Track::Migration, "evict", evict_start, t,
            {sim::Tracer::arg("phase", demand ? "demand" : "pre"),
             sim::Tracer::arg("kind",
                              invalidate ? "invalidate" : "writeback"),
             sim::Tracer::arg("block", victim),
             sim::Tracer::arg("pages", std::uint64_t(bi.pages))});
    for (auto *l : listeners_)
        l->onBlockEvicted(victim, invalidate);
}

// --------------------------------------------------------------------
// Validation
// --------------------------------------------------------------------

void
Driver::checkInvariants(sim::CheckContext &ctx) const
{
    // The slab itself first: state bytes, live count, link symmetry.
    // Everything below may rely on it.
    store_.checkInvariants(ctx);

    // Walk the intrusive LRU once, marking membership and checking
    // residency plus migrateSeq order (oldest migration first).
    std::vector<char> in_lru(store_.slabSize(), 0);
    std::uint64_t prev_seq = 0;
    bool have_prev = false;
    for (BlockIndex i = store_.lruHead(); i != kNoBlockIndex;
         i = store_.at(i).lruNext) {
        if (i >= store_.slabSize() || in_lru[i])
            break; // store_.checkInvariants reported the corruption
        in_lru[i] = 1;
        const BlockInfo &bi = store_.at(i);
        ctx.require(bi.loc == Loc::Device,
                    "LRU block %llu not resident",
                    static_cast<unsigned long long>(store_.idAt(i)));
        ctx.require(bi.migrateSeq <= migrateSeq_,
                    "block %llu migrateSeq %llu beyond counter %llu",
                    static_cast<unsigned long long>(store_.idAt(i)),
                    static_cast<unsigned long long>(bi.migrateSeq),
                    static_cast<unsigned long long>(migrateSeq_));
        ctx.require(!have_prev || bi.migrateSeq > prev_seq,
                    "LRU order broken: block %llu migrateSeq %llu "
                    "not after predecessor's %llu",
                    static_cast<unsigned long long>(store_.idAt(i)),
                    static_cast<unsigned long long>(bi.migrateSeq),
                    static_cast<unsigned long long>(prev_seq));
        prev_seq = bi.migrateSeq;
        have_prev = true;
    }

    // Residency vs FramePool: every frame in use belongs to a
    // resident block or to a migration whose completion event is in
    // flight. This is the double-count/leak check the related UVM
    // oversubscription studies motivate.
    std::uint64_t device_pages = 0;
    std::size_t device_blocks = 0;
    std::uint64_t pinned_blocks = 0;
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        if (bi.loc == Loc::Device) {
            device_pages += bi.pages;
            ++device_blocks;
            ctx.require(in_lru[i] != 0,
                        "resident block %llu missing from LRU",
                        static_cast<unsigned long long>(b));
        } else {
            ctx.require(in_lru[i] == 0,
                        "non-resident block %llu present in LRU",
                        static_cast<unsigned long long>(b));
        }
        if (bi.pinned)
            ++pinned_blocks;
        ctx.require(bi.inactiveBytes <=
                        std::uint64_t(bi.pages) * mem::kPageSize,
                    "block %llu inactive bytes %llu exceed its size",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(bi.inactiveBytes));
    });
    ctx.require(device_pages + inFlight_.pages == frames_.usedPages(),
                "frame accounting drift: %llu resident + %llu in "
                "flight != %llu frames used",
                static_cast<unsigned long long>(device_pages),
                static_cast<unsigned long long>(inFlight_.pages),
                static_cast<unsigned long long>(frames_.usedPages()));
    ctx.require(migBusy_ || inFlight_.pages == 0,
                "migration thread idle with %llu pages in flight",
                static_cast<unsigned long long>(inFlight_.pages));
    ctx.require(store_.lruSize() == device_blocks,
                "LRU list holds %zu blocks, %zu are resident",
                store_.lruSize(), device_blocks);
    ctx.require(pinned_blocks == pinnedCount_,
                "pinned counter %llu disagrees with %llu pinned "
                "records",
                static_cast<unsigned long long>(pinnedCount_),
                static_cast<unsigned long long>(pinned_blocks));

    // Queued-flag agreement: a set flag means the block really is in
    // the respective queue. (The reverse is legal: a queued command
    // can outlive its block being freed and re-registered.)
    std::unordered_set<mem::BlockId> in_fault;
    faultQueue_.forEach(
        [&](const MigrateCmd &c) { in_fault.insert(c.block); });
    std::unordered_set<mem::BlockId> in_prefetch;
    prefetchQueue_.forEach(
        [&](const MigrateCmd &c) { in_prefetch.insert(c.block); });
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        ctx.require(!bi.queuedFault || in_fault.count(b) != 0,
                    "block %llu flagged fault-queued but absent from "
                    "the fault queue",
                    static_cast<unsigned long long>(b));
        ctx.require(!bi.queuedPrefetch || in_prefetch.count(b) != 0,
                    "block %llu flagged prefetch-queued but absent "
                    "from the prefetch queue",
                    static_cast<unsigned long long>(b));
    });
}

void
Driver::dumpState(std::ostream &os) const
{
    os << "Driver{blocks=" << store_.size()
       << " lru=" << store_.lruSize() << " pinned=" << pinnedCount_
       << " faultQueue=" << faultQueue_.size()
       << " prefetchQueue=" << prefetchQueue_.size()
       << " migBusy=" << migBusy_ << " inFlightPages=" << inFlight_.pages
       << " migrateSeq=" << migrateSeq_ << "}\n";
    os << "  frames: used=" << frames_.usedPages()
       << " free=" << frames_.freePages()
       << " total=" << frames_.totalPages() << "\n";
    store_.dumpState(os);

    // forEachBlock iterates slots, which are in BlockId order.
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        os << "  block " << b << ": pages=" << bi.pages << " loc="
           << (bi.loc == Loc::Device
                   ? "device"
                   : bi.loc == Loc::Host ? "host" : "unpopulated")
           << " seq=" << bi.migrateSeq
           << (bi.prefetched ? " prefetched" : "")
           << (bi.queuedFault ? " qF" : "")
           << (bi.queuedPrefetch ? " qP" : "")
           << (bi.pinned ? " pinned" : "") << "\n";
    });
    os << "  lru:";
    for (mem::BlockId b : store_.lruOrder())
        os << " " << b;
    os << "\n";
}

} // namespace deepum::uvm
