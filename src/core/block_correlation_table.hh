/**
 * @file
 * UM block correlation tables (paper Section 4.2, Figure 7).
 *
 * One table per execution ID, allocated lazily when a kernel with a
 * new ID first faults. Set-associative (NumRows x Assoc) with
 * NumSuccs MRU-ordered successor blocks per entry, plus the `start`
 * block (first fault after the kernel began) and `end` block (last
 * fault before the next kernel), which the prefetcher uses to chain
 * across kernels.
 *
 * Storage is sized by the live entries, not by the geometry. A table
 * holds a handful to a hundred live entries of its thousands of ways
 * on the paper's workloads, so it keeps one occupancy bit per way
 * plus, per 64-way word, the live count of the earlier words (the
 * rank base). The live entries sit packed in ascending way order, and
 * their fixed-capacity successor windows sit packed in a parallel
 * array. An occupied way's entry is its rank: the word's rank base
 * plus the occupied ways below it in its word. A probe is the set
 * hash, one rank, and a compare per way of the set; construction
 * allocates the bitmap and the rank bases only (768 B at the default
 * 2048 x 2).
 *
 * Filling an empty way inserts into both packed arrays and raises the
 * later words' rank bases; erase() removes and lowers them. So
 * record() may allocate while a table grows past its largest live
 * count so far, and successor storage moves whenever an entry is
 * inserted or erased: a SuccView, like an entry index, is valid until
 * the next DEEPUM_INVALIDATES_VIEWS call on its table. An index handed
 * back to visit() as a hint may outlive that call, because visit()
 * checks the hinted entry's tag before it trusts the index.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/execution_id_table.hh"
#include "mem/addr.hh"
#include "support/annotations.hh"
#include "uvm/block_info.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::core {

/**
 * Borrowed, read-only view of one entry's successor list (MRU
 * first), pointing into the table's packed successor array. It is
 * valid until the next DEEPUM_INVALIDATES_VIEWS call on its table:
 * inserting or erasing an entry moves the successor windows. While
 * no entry is inserted or erased a held view re-reads current
 * contents, so it sees MRU updates to its own entry (at the length
 * captured when it was made). The analyzer's view-escape check
 * enforces the contract: views must not be stored in fields or
 * containers, nor held live across DEEPUM_INVALIDATES_VIEWS methods.
 */
class DEEPUM_VIEW SuccView
{
  public:
    SuccView() = default;
    SuccView(const mem::BlockId *data, std::uint32_t size)
        : data_(data), size_(size)
    {}

    const mem::BlockId *begin() const { return data_; }
    const mem::BlockId *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    mem::BlockId operator[](std::size_t i) const { return data_[i]; }
    mem::BlockId front() const { return data_[0]; }

  private:
    const mem::BlockId *data_ = nullptr;
    std::uint32_t size_ = 0;
};

/** One execution ID's block-successor table. */
class BlockCorrelationTable
{
  public:
    explicit BlockCorrelationTable(const BlockTableConfig &cfg);

    /** Packed index of a live entry (see freshEntries()). */
    using EntryIndex = std::uint32_t;

    /** "No entry": a failed probe, or a visit() without a hint. */
    static constexpr EntryIndex kNoEntry = ~EntryIndex(0);

    /**
     * Record that a fault on @p next followed a fault on @p prev
     * within this kernel. One pass over @p prev's set finds its
     * entry or the way to fill: the first empty way, else the strict
     * LRU way. Inserts @p next at MRU position of @p prev's successor
     * list. Allocates only while filling an empty way grows the
     * table past its largest live count so far (growEntries()).
     */
    DEEPUM_NOALLOC DEEPUM_INVALIDATES_VIEWS
    void record(mem::BlockId prev, mem::BlockId next);

    /**
     * Successors of @p b, MRU first. Empty when @p b has no entry.
     * Returned by value; see SuccView for the lifetime contract.
     */
    DEEPUM_NOALLOC SuccView successors(mem::BlockId b) const;

    /**
     * One chain-walk visit: refresh() and successors() of @p b in at
     * most one probe. @p hint is an index that may name @p b's entry,
     * typically one freshEntries() returned. visit() trusts it only
     * while that entry still carries tag @p b, and probes otherwise.
     * That is exact because a tag is unique within a table: it can
     * live only in its own set, and record() finds an existing entry
     * before it fills a way. So a hint may outlive the
     * DEEPUM_INVALIDATES_VIEWS calls that shift or retag entries.
     */
    DEEPUM_NOALLOC SuccView visit(mem::BlockId b,
                                  EntryIndex hint = kNoEntry);

    /** First faulted block of the kernel's executions. */
    mem::BlockId start() const { return start_; }

    /** Last faulted block before the kernel transitions. */
    mem::BlockId end() const { return end_; }

    /** Directly set the pointers (tests and captureStartEnd). */
    void setStart(mem::BlockId b) { start_ = b; }
    void setEnd(mem::BlockId b) { end_ = b; }

    /**
     * Capture the start/end blocks from one execution whose fault
     * sequence had @p len blocks (paper: first/last faulted block
     * around the execution ID transition).
     *
     * Re-capturing is necessary — the caching allocator's placement
     * differs between the cold first iteration and the steady state,
     * so the pointers must track current addresses. But committing
     * unconditionally lets a single stray residual fault truncate
     * the chain for the next iteration. Hysteresis resolves the
     * tension: commit only sequences at least half as long as the
     * best seen; after several consecutive rejections accept the new
     * (genuinely shorter) pattern.
     */
    DEEPUM_NOALLOC void captureStartEnd(mem::BlockId start,
                                        mem::BlockId end,
                                        std::uint32_t len);

    /** Longest committed fault-sequence length (tests). */
    std::uint32_t bestSequenceLen() const { return bestLen_; }

    /**
     * Fill @p out (cleared first) with the indices of the entries
     * touched within the last @p window executions, in ascending way
     * order. An index names its entry to tagAt() and refreshAt()
     * until the next DEEPUM_INVALIDATES_VIEWS call on this table. As
     * a visit() hint it may outlive that call: visit() validates it.
     *
     * A kernel's fault-learned graph can split into disconnected
     * components (blocks that stop faulting because prefetching
     * covers them stop being re-linked), so chaining from `start`
     * alone oscillates between components. Issuing every *live*
     * entry on kernel entry breaks the oscillation; refresh() keeps
     * successfully-prefetched entries live. The out-parameter form
     * lets the prefetcher reuse one scratch vector across
     * activations (allocation-free steady state). Cost is O(live
     * entries).
     */
    DEEPUM_NOALLOC void freshEntries(std::uint32_t window,
                                     std::vector<EntryIndex> &out) const;

    /** Tags of freshEntries(), in the same order (tests). */
    std::vector<mem::BlockId> freshTags(std::uint32_t window) const;

    /** Tag of the live entry at @p i. */
    mem::BlockId tagAt(EntryIndex i) const { return entries_[i].tag; }

    /** Mark @p b's entry as used this epoch (GPU access, useful
     * prefetch). */
    DEEPUM_NOALLOC void refresh(mem::BlockId b);

    /** refresh() the live entry at @p i without probing for it. */
    DEEPUM_NOALLOC void refreshAt(EntryIndex i);

    /**
     * Drop @p b's entry. Called when a prefetch predicted from this
     * table was evicted untouched: its kernel ran without the block,
     * so the entry is stale (a leftover from an earlier allocator
     * placement) and must stop feeding the chain.
     */
    DEEPUM_NOALLOC DEEPUM_INVALIDATES_VIEWS void erase(mem::BlockId b);

    /**
     * Scrub every reference to blocks in [@p first, @p end): entries
     * tagged with them are dropped, they are removed from successor
     * lists, and dangling start/end pointers reset. Called when a UM
     * range is freed so the table never feeds dead blocks to the
     * prefetcher.
     */
    DEEPUM_INVALIDATES_VIEWS
    void eraseRange(mem::BlockId first, mem::BlockId end);

    /** Executions (with faults) this table has seen. */
    std::uint32_t epoch() const { return epoch_; }

    /** Live entries across all sets (tests/stats). */
    std::size_t entryCount() const { return entries_.size(); }

    /**
     * The paper's Table-4 size of this table: full configured
     * geometry, rows x assoc x (tag + use stamp + succs). A fidelity
     * number, not host memory: the host keeps the live entries only.
     */
    std::uint64_t sizeBytes() const;

    const BlockTableConfig &config() const { return cfg_; }

    /**
     * Valid entries evicted by LRU way replacement so far: the
     * set-conflict count. A record stream whose working set fits the
     * geometry (rows x assoc) never replaces, and every record after
     * warm-up is an MRU refresh; once the working set exceeds the
     * geometry, each conflict costs a replacement *and* destroys the
     * successor list the prefetcher would have walked (see the
     * EXPERIMENTS.md geometry study).
     */
    std::uint64_t replacements() const { return replacements_; }

    /**
     * Audit structural invariants (sim/validate.hh) in O(live +
     * ways/64): the bitmap holds no bit past the way count, the rank
     * bases are the bitmap's running live counts and the packed
     * arrays hold exactly that many entries and windows; per live
     * entry, its tag hashes to its way's set and appears once in that
     * set, its successor count is within capacity and its successors
     * are duplicate-free, and its use/epoch stamps are within the
     * counters.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the live entries (for violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /**
     * One live entry. Fixed-size: the successor list is window
     * [i*numSuccs, i*numSuccs + succCount) of succs_ for the entry
     * at packed index i, MRU first.
     */
    struct Entry {
        mem::BlockId tag = uvm::kNoBlock;
        std::uint64_t lastUse = 0;
        std::uint32_t lastEpoch = 0;
        std::uint32_t succCount = 0;
    };

    /** Map @p b to its set index. */
    std::size_t setIndex(mem::BlockId b) const;

    /** Packed index of @p b's entry, or kNoEntry. On a hit @p way is
     * the entry's way. */
    EntryIndex find(mem::BlockId b, std::size_t &way) const;

    /** find() when the way is not needed. */
    EntryIndex
    find(mem::BlockId b) const
    {
        std::size_t way = 0;
        return find(b, way);
    }

    /**
     * Set bits in @p x. Spelled out because the baseline x86-64
     * target has no POPCNT instruction, and __builtin_popcountll
     * becomes a libgcc call there.
     */
    static EntryIndex
    countBits(std::uint64_t x)
    {
        x -= (x >> 1) & 0x5555555555555555ULL;
        x = (x & 0x3333333333333333ULL) +
            ((x >> 2) & 0x3333333333333333ULL);
        x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
        return static_cast<EntryIndex>((x * 0x0101010101010101ULL) >> 56);
    }

    /** Packed index of the entry of occupied (or to-be-filled) @p way:
     * the live entries at lower ways. */
    EntryIndex
    rankOf(std::size_t way) const
    {
        return rankBase_[way >> 6] +
               countBits(occupied_[way >> 6] & (wayBit(way) - 1));
    }

    /** Successor window of the entry at packed index @p i. */
    mem::BlockId *succsOf(EntryIndex i)
    {
        return &succs_[std::size_t(i) * cfg_.numSuccs];
    }
    const mem::BlockId *succsOf(EntryIndex i) const
    {
        return &succs_[std::size_t(i) * cfg_.numSuccs];
    }

    /** Bit of way @p way within its occupancy word. */
    static std::uint64_t
    wayBit(std::size_t way)
    {
        return std::uint64_t(1) << (way & 63);
    }

    bool
    isOccupied(std::size_t way) const
    {
        return (occupied_[way >> 6] & wayBit(way)) != 0;
    }

    /**
     * Fill empty @p way with a reset entry at packed index @p i
     * (== rankOf(way)). The only place the packed arrays grow, through
     * support::insertAmortized().
     */
    DEEPUM_NOALLOC void growEntries(std::size_t way, EntryIndex i);

    /**
     * Call @p fn(way) for every occupied way in ascending order. Each
     * word is copied before its bits are walked, so @p fn may clear
     * the bit of the way it is given.
     */
    template <typename Fn>
    void
    forEachOccupied(Fn &&fn) const
    {
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            for (std::uint64_t bits = occupied_[w]; bits != 0;
                 bits &= bits - 1)
                fn(w * 64 +
                   static_cast<std::size_t>(__builtin_ctzll(bits)));
        }
    }

    BlockTableConfig cfg_;
    /** Bit i set exactly when way i holds an entry; 64 ways/word. */
    std::vector<std::uint64_t> occupied_;
    /** Per occupancy word, the live entries in the earlier words. A
     * live count fits 32 bits: 2^32 entries would be 96 GiB. */
    std::vector<EntryIndex> rankBase_;
    std::vector<Entry> entries_;       ///< live entries, way order
    std::vector<mem::BlockId> succs_;  ///< entries_.size() * numSuccs
    mem::BlockId start_ = uvm::kNoBlock;
    mem::BlockId end_ = uvm::kNoBlock;
    std::uint64_t useClock_ = 0;
    /** Set-conflict LRU evictions (see replacements()). */
    std::uint64_t replacements_ = 0;
    std::uint32_t bestLen_ = 0;     ///< longest committed sequence
    std::uint32_t staleRejects_ = 0;
    std::uint32_t epoch_ = 0;       ///< executions with faults seen
};

/**
 * Lazily-allocated collection: one block table per execution ID.
 *
 * ExecutionIdTable hands out dense IDs (0, 1, 2, ...), so the
 * collection is an ExecId-indexed vector — find() is a bounds check
 * plus one load, no hashing — of owning pointers (tables are large
 * and must stay address-stable across getOrCreate() growth, since
 * the correlator and prefetcher hold references across calls).
 */
class BlockCorrelationTableSet
{
  public:
    explicit BlockCorrelationTableSet(const BlockTableConfig &cfg)
        : cfg_(cfg)
    {}

    /** Get the table for @p id, allocating it on first use. */
    BlockCorrelationTable &getOrCreate(ExecId id);

    /** @return the table for @p id, or nullptr if never allocated. */
    BlockCorrelationTable *
    find(ExecId id)
    {
        return id < tables_.size() ? tables_[id].get() : nullptr;
    }
    const BlockCorrelationTable *
    find(ExecId id) const
    {
        return id < tables_.size() ? tables_[id].get() : nullptr;
    }

    /** Number of allocated tables. */
    std::size_t tableCount() const { return count_; }

    /** Table-4 bytes across all allocated tables (sizeBytes()). */
    std::uint64_t totalSizeBytes() const;

    /** eraseRange() on every allocated table (UM range freed). */
    void eraseBlocksInRange(mem::BlockId first, mem::BlockId end);

    /** Audit every allocated table (sim/validate.hh). */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Visit every allocated table as (ExecId, table&), id order. */
    template <typename Fn>
    void
    forEachTable(Fn &&fn) const
    {
        for (ExecId id = 0; id < tables_.size(); ++id) {
            if (tables_[id] != nullptr)
                fn(id, *tables_[id]);
        }
    }

    /** Stream every allocated table, id-ordered (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    BlockTableConfig cfg_;
    std::vector<std::unique_ptr<BlockCorrelationTable>> tables_;
    std::size_t count_ = 0; ///< non-null slots in tables_
};

} // namespace deepum::core
