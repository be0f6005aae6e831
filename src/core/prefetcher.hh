/**
 * @file
 * The prefetching thread (paper Sections 3.1 and 4.2).
 *
 * On every fault batch the prefetcher (re)starts *chaining*: it walks
 * the current kernel's block correlation table from the faulted
 * blocks, enqueueing every successor into the driver's prefetch
 * queue. When it meets the kernel's `end` block it consults the
 * execution ID table to predict the next kernel and continues from
 * that kernel's `start` block. Chaining pauses once commands for the
 * next N kernels are enqueued and resumes when the running kernel
 * finishes; it dies when the next kernel cannot be predicted, and is
 * restarted by the next fault.
 *
 * The prefetcher also maintains the *protected set* — blocks
 * predicted to be used by the current and next N kernels — which the
 * DeepUM eviction policy consults (Section 5.1). The walk dedupe and
 * the protection stamps are dense arrays keyed by the driver's
 * BlockStore slots: the dedupe is epoch-stamped (a generation bump is
 * the O(1) per-activation clear), and the protection probe the
 * eviction policy hits per LRU step is one array read and a compare.
 *
 * The steady-state chain walk is allocation-free, probes a table at
 * most once per entry it touches, and looks each block up in the
 * driver's BlockStore once per chain step: the prediction window is a
 * fixed ring of exec IDs plus one stamp per block, the walk queue is
 * a reused vector consumed by index, visit() stamps an entry and
 * returns a view into the table's packed successor array, the
 * fresh-entry sweep fills a reused scratch vector with entry indices
 * that stamp their entries without a second probe and ride along in
 * the walk as visit() hints, markSeen() hands the slot it resolved to
 * protect() and the driver's enqueuePrefetchAt(), and the pending
 * completion ticks live in an ExecId-indexed dense table whose
 * per-exec vectors are drained with clear() (capacity retained). That
 * contract is machine-checked: the fault/chain entry points are
 * DEEPUM_NOALLOC and tools/analyzer/ proves their call graphs reach
 * allocation only through the documented DEEPUM_ALLOC_OK hatches
 * (scratch growth, amortized vector growth, the driver's prefetch
 * push, opt-in tracing).
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/config.hh"
#include "core/correlator.hh"
#include "core/exec_correlation_table.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "support/annotations.hh"
#include "uvm/driver.hh"

namespace deepum::core {

/**
 * The prediction window and the protected set it defines: live slot
 * 0 is the running kernel, slot k the kernel predicted k launches
 * ahead, and a block is protected while any live slot has issued it.
 *
 * Slots carry consecutive sequence numbers, slot k being
 * retired_ + k + 1, and each block keeps one stamp: the sequence
 * number of the newest slot that protected it. Slots only ever retire
 * front first (a correct prediction retires one, a mispredict all of
 * them), so a block stays protected exactly as long as that newest
 * slot does, and the test is stamp > retired_. Stamps are keyed by
 * BlockStore slot; the exec-ID ring holds live slot k at
 * (retired_ + k) mod capacity.
 */
class PredictionWindow
{
  public:
    /** An empty window of at most @p capacity slots. */
    explicit PredictionWindow(std::size_t capacity)
        : execs_(capacity, kNoExecId)
    {}

    /** Live slots. */
    std::size_t size() const { return count_; }

    /** The most slots the window can hold. */
    std::size_t capacity() const { return execs_.size(); }

    /** Exec ID of live slot @p k (0 = the running kernel). */
    DEEPUM_NOALLOC ExecId &
    exec(std::size_t k)
    {
        return execs_[(retired_ + k) % execs_.size()];
    }
    DEEPUM_NOALLOC ExecId
    exec(std::size_t k) const
    {
        return execs_[(retired_ + k) % execs_.size()];
    }

    /** Append a slot for @p exec at the back. */
    DEEPUM_NOALLOC void
    push(ExecId exec_id)
    {
        DEEPUM_ASSERT(count_ < execs_.size(),
                      "prediction window overflows its ring");
        ++count_;
        exec(count_ - 1) = exec_id;
    }

    /** Retire the front slot (its kernel launched as predicted). */
    DEEPUM_NOALLOC void
    popFront()
    {
        DEEPUM_ASSERT(count_ > 0, "popping an empty window");
        ++retired_;
        --count_;
    }

    /** Retire every live slot (a mispredicted launch). */
    DEEPUM_NOALLOC void
    clear()
    {
        retired_ += count_;
        count_ = 0;
    }

    /** Cover block slots [0, @p n) with stamps. */
    DEEPUM_ALLOC_OK("stamps grow with the slab, not per fault")
    void
    growStamps(std::size_t n)
    {
        if (stamp_.size() < n)
            stamp_.resize(n, 0);
    }

    /** Protect block slot @p i (< the grown size) for live slot @p k. */
    DEEPUM_NOALLOC void
    protect(std::size_t k, uvm::BlockIndex i)
    {
        DEEPUM_ASSERT(k < count_, "protecting for a dead window slot");
        std::uint64_t seq = retired_ + k + 1;
        if (stamp_[i] < seq)
            stamp_[i] = seq;
    }

    /** True while a live slot has protected block slot @p i. */
    DEEPUM_NOALLOC bool
    isProtected(uvm::BlockIndex i) const
    {
        return stamp(i) > retired_;
    }

    /** Slots retired so far: a stamp above this is protected. */
    std::uint64_t retired() const { return retired_; }

    /**
     * Block slot @p i's stamp: the sequence number of the newest
     * window slot that protected it, 0 if none. Only protect() and a
     * range free change it; protect() only raises it, and a range
     * free zeroes it only after its block left the LRU.
     */
    DEEPUM_NOALLOC std::uint64_t
    stamp(uvm::BlockIndex i) const
    {
        return i < stamp_.size() ? stamp_[i] : 0;
    }

    /** Forget block slot @p i's protection (its block was freed). */
    void
    unprotect(uvm::BlockIndex i)
    {
        if (i < stamp_.size())
            stamp_[i] = 0;
    }

    /** Audit: the ring holds the live slots, and no stamp lies beyond
     * the window's back slot. */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the live slots and protected block slots. */
    void dumpState(std::ostream &os) const;

  private:
    std::vector<ExecId> execs_;        ///< ring of live slots' exec IDs
    std::uint64_t retired_ = 0;        ///< slots retired so far
    std::size_t count_ = 0;            ///< live slots
    std::vector<std::uint64_t> stamp_; ///< per block slot: newest protector
};

/** Issues prefetch commands by chaining through correlation tables. */
class Prefetcher
{
  public:
    Prefetcher(uvm::Driver &drv, ExecCorrelationTable &exec_table,
               BlockCorrelationTableSet &blocks, Correlator &correlator,
               const DeepUmConfig &cfg, sim::StatSet &stats);

    /** The runtime announced the next kernel (actual transition). */
    DEEPUM_NOALLOC void onKernelLaunch(ExecId id);

    /** A preprocessed fault batch arrived: restart chaining. */
    DEEPUM_NOALLOC
    void onFaultBlocks(const std::vector<mem::BlockId> &blocks);

    /** The running kernel finished: resume a paused chain. */
    DEEPUM_NOALLOC void onKernelEnd();

    /**
     * A prefetched block became resident at @p at, predicted for
     * @p exec_id. Feeds the lead-time distribution (how far ahead of
     * the consuming kernel's launch the prefetch completed).
     */
    DEEPUM_NOALLOC void onPrefetchCompleted(mem::BlockId block,
                                            ExecId exec_id, sim::Tick at);

    /** The driver dropped [first, end): those blocks lose protection. */
    void onRangeUnregistered(mem::BlockId first, mem::BlockId end);

    /**
     * @return true if the block in slab slot @p i is predicted to be
     * used by the current or next N kernels (the pre-eviction
     * protection test).
     */
    DEEPUM_NOALLOC bool
    isProtectedIndex(uvm::BlockIndex i) const
    {
        return window_.isProtected(i);
    }

    /** The prediction window (the victim walk reads its stamps). */
    const PredictionWindow &window() const { return window_; }

    /** Number of kernels the chain has advanced past the current. */
    std::uint32_t chainDepth() const { return chainDepth_; }

    /**
     * Audit the protection bookkeeping (sim/validate.hh): the window
     * (its ring sized to the lookahead bound, no stamp beyond its
     * back), protection only on registered blocks, the chain cursor
     * inside the window, and the pending completion table's non-empty
     * counter matching its slots.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the window and protection state (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /**
     * Size the index-keyed scratch arrays to the driver's slab. Run on
     * entry to each activation: the slab grows only between events,
     * never inside one.
     */
    DEEPUM_ALLOC_OK("scratch arrays grow with the slab, not per fault")
    void
    growScratch()
    {
        std::size_t n = drv_.store().slabSize();
        if (seenEpoch_.size() < n) {
            seenEpoch_.resize(n, 0);
            window_.growStamps(n);
        }
    }

    /**
     * Mark @p b visited in this activation; @return true on first
     * visit. @p i is set to @p b's store slot, the one lookup of the
     * chain step: protect() and issue() take it. Unknown blocks
     * (kNoBlockIndex) count as first visits; the driver drops their
     * enqueues. The scratch arrays must cover the slab
     * (growScratch()).
     */
    DEEPUM_NOALLOC bool
    markSeen(mem::BlockId b, uvm::BlockIndex &i)
    {
        i = drv_.store().find(b);
        if (i == uvm::kNoBlockIndex)
            return true;
        if (seenEpoch_[i] == seenGen_)
            return false;
        seenEpoch_[i] = seenGen_;
        return true;
    }

    /** Reset the walk queue (keeps vector capacity). */
    DEEPUM_NOALLOC void
    clearWalk()
    {
        walk_.clear();
        walkHead_ = 0;
    }

    /** Grow the pending-completion table to cover @p exec_id. */
    DEEPUM_ALLOC_OK("pending table grows with the ExecId space")
    void
    growPending(ExecId exec_id)
    {
        if (exec_id >= pendingDone_.size())
            pendingDone_.resize(std::size_t(exec_id) + 1);
    }

    /** Protect the block in store slot @p i (kNoBlockIndex: none) for
     * window slot @p slot. */
    DEEPUM_NOALLOC void
    protect(std::size_t slot, uvm::BlockIndex i)
    {
        if (i != uvm::kNoBlockIndex)
            window_.protect(slot, i);
    }

    /** Drop the front slot (its kernel retired or mispredicted). */
    DEEPUM_NOALLOC void popFrontSlot();

    /** Drop every slot and kill the chain. */
    DEEPUM_NOALLOC void clearAllSlots();

    /** Enqueue @p b, in store slot @p i, and protect it for slot
     * @p slot. */
    DEEPUM_NOALLOC void issue(std::size_t slot, mem::BlockId b,
                              uvm::BlockIndex i);

    /** Issue all live entries of @p slot's kernel table. */
    DEEPUM_NOALLOC void enterKernelTable(std::size_t slot);

    /** Walk successors until pause/death/budget-exhaustion. */
    DEEPUM_NOALLOC void runChain();

    /**
     * Met the end block: predict the next kernel and move the chain
     * to its start block. @return false if the chain dies.
     */
    DEEPUM_NOALLOC bool transitionChain();

    /** Emit the chain-start trace marker (tracing is opt-in). */
    DEEPUM_ALLOC_OK("tracer args build strings; tracing is opt-in")
    void traceChainStart(ExecId cur, std::size_t faulted) const;

    /** Emit the next-kernel-prediction trace marker. */
    DEEPUM_ALLOC_OK("tracer args build strings; tracing is opt-in")
    void tracePredictNext(ExecId next) const;

    uvm::Driver &drv_;
    ExecCorrelationTable &execTable_;
    BlockCorrelationTableSet &blockTables_;
    Correlator &correlator_;
    const DeepUmConfig &cfg_;

    PredictionWindow window_;

    /**
     * Prefetch completion ticks awaiting their predicted launch,
     * indexed by ExecId (dense). Drained slots keep their capacity.
     */
    std::vector<std::vector<sim::Tick>> pendingDone_;
    std::size_t pendingExecs_ = 0; ///< non-empty pendingDone_ slots

    // Chain state.
    bool active_ = false;
    bool paused_ = false;
    ExecId predCur_ = kNoExecId;     ///< kernel being prefetched for
    ExecHistory predHist_{kNoExecId, kNoExecId, kNoExecId};
    std::uint32_t chainDepth_ = 0;   ///< window index being filled
    /**
     * A block whose successors to visit, and the index of its entry in
     * the kernel's table when the fresh-entry sweep found it (a
     * visit() hint, checked there; kNoEntry otherwise).
     */
    struct WalkItem {
        mem::BlockId block;
        BlockCorrelationTable::EntryIndex hint;
    };
    /** The walk queue: a reused vector consumed by walkHead_ (FIFO
     * without deque segment churn). */
    std::vector<WalkItem> walk_;
    std::size_t walkHead_ = 0;
    /** Scratch for the fresh-entry sweep (reused across activations). */
    std::vector<BlockCorrelationTable::EntryIndex> freshScratch_;
    /** Epoch-stamped walk dedupe, keyed by slab index. */
    std::vector<std::uint64_t> seenEpoch_;
    std::uint64_t seenGen_ = 1;      ///< current walk generation
    std::uint32_t budget_ = 0;       ///< enqueue cap per activation

    sim::Scalar chainsStarted_;
    sim::Scalar chainTransitions_;
    sim::Scalar chainExhaustedTransitions_;
    sim::Scalar chainSkippedKernels_;
    sim::Scalar chainDeadNoPrediction_;
    sim::Scalar chainDeadNoTable_;
    sim::Scalar chainPauses_;
    sim::Scalar blocksIssued_;
    sim::Scalar mispredictedLaunches_;
    sim::Scalar lateCompletions_;
    sim::Distribution leadTime_;
};

} // namespace deepum::core
