#include "core/prefetcher.hh"

#include <ostream>

#include "sim/trace.hh"
#include "sim/validate.hh"

namespace deepum::core {

namespace {

/// Safety cap on blocks enqueued per chaining activation.
constexpr std::uint32_t kChainEnqueueCap = 4096;

/// Entries of a kernel's block table stay live for this many of its
/// executions after their last record/visit; live entries are all
/// issued when the chain enters the kernel.
constexpr std::uint32_t kFreshEpochWindow = 4;

/// A walk item with no visit() hint.
constexpr BlockCorrelationTable::EntryIndex kNoEntry =
    BlockCorrelationTable::kNoEntry;

} // namespace

void
PredictionWindow::checkInvariants(sim::CheckContext &ctx) const
{
    ctx.require(count_ <= execs_.size(),
                "prediction window holds %zu slots in a %zu-slot ring",
                count_, execs_.size());
    std::uint64_t back = retired_ + count_;
    for (std::size_t i = 0; i < stamp_.size(); ++i) {
        if (stamp_[i] <= back)
            continue;
        ctx.fail("block slot %zu stamped by window slot %llu, beyond "
                 "the back slot %llu",
                 i, static_cast<unsigned long long>(stamp_[i]),
                 static_cast<unsigned long long>(back));
    }
}

void
PredictionWindow::dumpState(std::ostream &os) const
{
    os << "  window: retired=" << retired_ << " slots=[";
    for (std::size_t k = 0; k < count_; ++k)
        os << (k != 0 ? " " : "") << exec(k);
    os << "]\n  protected (block slot@window slot):";
    for (std::size_t i = 0; i < stamp_.size(); ++i)
        if (stamp_[i] > retired_)
            os << " " << i << "@" << stamp_[i] - retired_ - 1;
    os << "\n";
}

Prefetcher::Prefetcher(uvm::Driver &drv, ExecCorrelationTable &exec_table,
                       BlockCorrelationTableSet &blocks,
                       Correlator &correlator, const DeepUmConfig &cfg,
                       sim::StatSet &stats)
    : drv_(drv),
      execTable_(exec_table),
      blockTables_(blocks),
      correlator_(correlator),
      cfg_(cfg),
      // The window never exceeds lookaheadN + 2 slots (the audited
      // bound below), so the ring is sized once and never grows.
      window_(std::size_t(cfg.lookaheadN) + 2),
      chainsStarted_(stats, "prefetcher.chainsStarted",
                     "chain (re)starts triggered by fault batches"),
      chainTransitions_(stats, "prefetcher.chainTransitions",
                        "kernel-to-kernel chain transitions"),
      chainExhaustedTransitions_(
          stats, "prefetcher.chainExhaustedTransitions",
          "transitions taken after exhausting a kernel's walk"),
      chainSkippedKernels_(stats, "prefetcher.chainSkippedKernels",
                           "predicted kernels skipped (no fault table)"),
      chainDeadNoPrediction_(stats, "prefetcher.chainDeadNoPrediction",
                             "chains ended: next kernel unpredictable"),
      chainDeadNoTable_(stats, "prefetcher.chainDeadNoTable",
                        "chains ended: predicted kernel has no table"),
      chainPauses_(stats, "prefetcher.chainPauses",
                   "chain pauses at the N-kernel lookahead limit"),
      blocksIssued_(stats, "prefetcher.blocksIssued",
                    "prefetch candidates issued to the driver"),
      mispredictedLaunches_(stats, "prefetcher.mispredictedLaunches",
                            "actual launches that broke the window"),
      lateCompletions_(stats, "prefetcher.lateCompletions",
                       "prefetches completing after their kernel began"),
      leadTime_(stats, "prefetcher.leadTime",
                "ticks between prefetch completion and consuming-"
                "kernel launch")
{
}

void
Prefetcher::popFrontSlot()
{
    window_.popFront();
    if (chainDepth_ == 0) {
        // The chain was still working on the kernel that just ended.
        active_ = false;
        paused_ = false;
        clearWalk();
        ++seenGen_;
    } else {
        --chainDepth_;
    }
}

void
Prefetcher::clearAllSlots()
{
    window_.clear();
    active_ = false;
    paused_ = false;
    chainDepth_ = 0;
    clearWalk();
    ++seenGen_;
}

void
Prefetcher::onRangeUnregistered(mem::BlockId first, mem::BlockId end)
{
    for (mem::BlockId b = first; b != end; ++b)
        window_.unprotect(drv_.store().slotOf(b));
}

void
Prefetcher::issue(std::size_t slot, mem::BlockId b, uvm::BlockIndex i)
{
    protect(slot, i);
    drv_.enqueuePrefetchAt(i, b, window_.exec(slot),
                           static_cast<std::uint32_t>(slot));
    ++blocksIssued_;
    if (budget_ > 0)
        --budget_;
}

void
Prefetcher::onPrefetchCompleted(mem::BlockId block, ExecId exec_id,
                                sim::Tick at)
{
    (void)block;
    if (exec_id == kNoExecId)
        return;
    if (window_.size() != 0 && window_.exec(0) == exec_id) {
        // The consuming kernel is already running: the prefetch
        // arrived late and saved nothing of its lead time.
        ++lateCompletions_;
        leadTime_.sample(0);
        return;
    }
    growPending(exec_id);
    if (pendingDone_[exec_id].empty())
        ++pendingExecs_;
    support::pushAmortized(pendingDone_[exec_id], at);
}

void
Prefetcher::onKernelLaunch(ExecId id)
{
    if (id < pendingDone_.size() && !pendingDone_[id].empty()) {
        sim::Tick now = drv_.eventq().now();
        for (sim::Tick done_at : pendingDone_[id])
            leadTime_.sample(now >= done_at ? now - done_at : 0);
        pendingDone_[id].clear(); // drained: capacity retained
        --pendingExecs_;
    }

    if (window_.size() == 0) {
        window_.push(id);
        return;
    }
    if (window_.size() >= 2 && window_.exec(1) == id) {
        // Predicted correctly: slide the window.
        popFrontSlot();
    } else {
        if (window_.size() >= 2)
            ++mispredictedLaunches_;
        clearAllSlots();
        window_.push(id);
    }
}

void
Prefetcher::onFaultBlocks(const std::vector<mem::BlockId> &blocks)
{
    if (!cfg_.prefetch)
        return;
    ExecId cur = correlator_.currentExec();
    if (cur == kNoExecId)
        return;
    if (blockTables_.find(cur) == nullptr)
        return; // nothing learned about this kernel yet

    // Paper Section 4.2: a new fault interrupt ends the running chain
    // and starts a fresh one from the faulted blocks.
    active_ = true;
    paused_ = false;
    predCur_ = cur;
    predHist_ = correlator_.history();
    chainDepth_ = 0;
    budget_ = kChainEnqueueCap;
    ++chainsStarted_;
    traceChainStart(cur, blocks.size());

    if (window_.size() == 0)
        window_.push(cur);
    window_.exec(0) = cur;

    growScratch();
    clearWalk();
    ++seenGen_;
    for (mem::BlockId b : blocks) {
        uvm::BlockIndex i;
        if (!markSeen(b, i))
            continue;
        // The faulted blocks are demand-migrating; protect them for
        // the current kernel and walk their successors.
        protect(0, i);
        support::pushAmortized(walk_, WalkItem{b, kNoEntry});
    }
    enterKernelTable(0);
    runChain();
}

void
Prefetcher::enterKernelTable(std::size_t slot)
{
    if (!cfg_.freshTagChaining)
        return; // ablation: start-component chaining only
    BlockCorrelationTable *bt = blockTables_.find(window_.exec(slot));
    if (bt == nullptr)
        return;
    // Issue every live entry of the kernel's table, not only the
    // start component: blocks covered by prefetching stop faulting
    // and would otherwise fall out of the chain (see freshEntries()).
    // issue() never touches a table, so the swept indices stay valid
    // and each entry is stamped without a second probe. Each index
    // rides along in the walk as its entry's visit() hint; a chain
    // paused before the visit may find it stale, which visit() checks.
    bt->freshEntries(kFreshEpochWindow, freshScratch_);
    for (BlockCorrelationTable::EntryIndex e : freshScratch_) {
        mem::BlockId t = bt->tagAt(e);
        uvm::BlockIndex i;
        if (!markSeen(t, i))
            continue;
        bt->refreshAt(e);
        issue(slot, t, i);
        support::pushAmortized(walk_, WalkItem{t, e});
        if (budget_ == 0)
            return;
    }
}

void
Prefetcher::traceChainStart(ExecId cur, std::size_t faulted) const
{
    if (auto *tr = drv_.eventq().tracer())
        tr->instant(sim::Track::PrefetchQueue, "chainStart",
                    drv_.eventq().now(),
                    {sim::Tracer::arg("exec", std::uint64_t(cur)),
                     sim::Tracer::arg("faultedBlocks",
                                      std::uint64_t(faulted))});
}

void
Prefetcher::tracePredictNext(ExecId next) const
{
    if (auto *tr = drv_.eventq().tracer())
        tr->instant(sim::Track::PrefetchQueue, "predictNext",
                    drv_.eventq().now(),
                    {sim::Tracer::arg("exec", std::uint64_t(next)),
                     sim::Tracer::arg("depth",
                                      std::uint64_t(chainDepth_))});
}

void
Prefetcher::onKernelEnd()
{
    if (active_ && paused_) {
        paused_ = false;
        runChain();
    }
}

void
Prefetcher::runChain()
{
    growScratch();
    while (active_ && !paused_) {
        if (budget_ == 0) {
            active_ = false;
            return;
        }
        if (walkHead_ == walk_.size()) {
            // Correlations for this kernel are exhausted without
            // meeting the end block (it may sit in a replaced table
            // way). Everything known is enqueued, so move on to the
            // predicted next kernel rather than killing the chain.
            ++chainExhaustedTransitions_;
            if (!transitionChain())
                return;
            continue;
        }
        const WalkItem p = walk_[walkHead_++];

        BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr) {
            active_ = false;
            ++chainDeadNoTable_;
            return;
        }
        // A visited entry is live: visit() stamps it in the fresh
        // window even when prefetching keeps it from ever faulting
        // again. A swept entry's hint spares the probe unless the
        // table changed while the chain was paused. The view aliases
        // the table's packed successor array.
        // issue() only pushes into the driver's queue and the
        // protection stamps — it never touches the block tables — so
        // iterating the array in place is safe; no defensive copy.
        SuccView succs = bt->visit(p.block, p.hint);
        bool end_met = false;
        for (mem::BlockId s : succs) {
            uvm::BlockIndex i;
            if (!markSeen(s, i))
                continue;
            issue(chainDepth_, s, i);
            if (s == bt->end())
                end_met = true;
            support::pushAmortized(walk_, WalkItem{s, kNoEntry});
        }
        // Meeting the end block signals the kernel's chain is
        // complete, but residual-fault "shortcut" edges can surface
        // it early in an MRU list; drain the remaining known blocks
        // before transitioning so one stray edge cannot truncate the
        // kernel's coverage.
        if (end_met && walkHead_ == walk_.size()) {
            if (!transitionChain())
                return;
        }
    }
}

bool
Prefetcher::transitionChain()
{
    for (;;) {
        ++chainTransitions_;
        if (budget_ == 0) {
            active_ = false;
            return false;
        }
        ExecId next =
            execTable_.predict(predCur_, predHist_, /*mru_fallback=*/true);
        if (next == kNoExecId) {
            active_ = false;
            ++chainDeadNoPrediction_;
            return false;
        }
        predHist_ = ExecHistory{predHist_[1], predHist_[2], predCur_};
        predCur_ = next;
        ++chainDepth_;
        tracePredictNext(next);
        while (window_.size() <= chainDepth_)
            window_.push(kNoExecId);
        window_.exec(chainDepth_) = next;

        const BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr || bt->start() == uvm::kNoBlock) {
            // This kernel never faulted (its working set is always
            // resident): nothing to prefetch for it. Skip through to
            // the kernel predicted after it instead of dying, or the
            // chain could never cross cheap kernels like optimizer
            // steps.
            ++chainSkippedKernels_;
            if (chainDepth_ >= cfg_.lookaheadN) {
                paused_ = true;
                ++chainPauses_;
                clearWalk();
                ++seenGen_;
                return true;
            }
            continue;
        }

        clearWalk();
        ++seenGen_;
        uvm::BlockIndex i;
        markSeen(bt->start(), i);
        issue(chainDepth_, bt->start(), i);
        support::pushAmortized(walk_, WalkItem{bt->start(), kNoEntry});
        enterKernelTable(chainDepth_);

        if (chainDepth_ >= cfg_.lookaheadN) {
            paused_ = true;
            ++chainPauses_;
            return true;
        }
        bool single_block =
            bt->start() == bt->end() && bt->end() != uvm::kNoBlock;
        if (!single_block)
            return true;
        // Degenerate single-fault kernel: keep transitioning.
    }
}

void
Prefetcher::checkInvariants(sim::CheckContext &ctx) const
{
    window_.checkInvariants(ctx);
    // A range free scrubs its blocks' stamps, so protection rests on
    // registered blocks only.
    const uvm::BlockStore &st = drv_.store();
    for (uvm::BlockIndex i = 0; i < st.slabSize(); ++i) {
        if (!window_.isProtected(i) || st.find(st.idAt(i)) == i)
            continue;
        ctx.fail("protected slab slot %u backs no registered block", i);
    }
    ctx.require(window_.capacity() == std::size_t(cfg_.lookaheadN) + 2,
                "window ring holds %zu slots, expected %zu",
                window_.capacity(), std::size_t(cfg_.lookaheadN) + 2);
    ctx.require(chainDepth_ == 0 || chainDepth_ < window_.size(),
                "chain cursor %u outside the %zu-slot window",
                chainDepth_, window_.size());
    ctx.require(walkHead_ <= walk_.size(),
                "walk cursor %zu beyond the %zu-entry queue",
                walkHead_, walk_.size());
    std::size_t pending = 0;
    for (ExecId id = 0; id < pendingDone_.size(); ++id)
        if (!pendingDone_[id].empty())
            ++pending;
    ctx.require(pending == pendingExecs_,
                "pending-completion counter %zu disagrees with %zu "
                "non-empty slots",
                pendingExecs_, pending);
}

void
Prefetcher::dumpState(std::ostream &os) const
{
    os << "Prefetcher{active=" << active_ << " paused=" << paused_
       << " chainDepth=" << chainDepth_ << " predCur=" << predCur_
       << " budget=" << budget_ << " slots=" << window_.size()
       << " walk=" << walk_.size() - walkHead_ << "}\n";
    window_.dumpState(os);
}

} // namespace deepum::core
