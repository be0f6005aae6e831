/**
 * @file
 * Property tests for the dense correlation engine, mirroring
 * tests/test_block_store.cpp: long random op sequences against
 * trivially-correct reference models (maps and plain vectors), with
 * the tables' own invariant audits interleaved. Exercises the parts
 * the packed layout makes subtle — rank bases kept across inserts
 * and erases, set-conflict LRU replacement, MRU reordering at
 * successor capacity, range erasure compaction, stamping by swept
 * index, visits hinted with stale indices — plus the SuccView lifetime
 * contract, the construction footprint, and the allocation-free
 * guarantee of the steady-state record/lookup paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_window.hh"
#include "core/block_correlation_table.hh"
#include "core/exec_correlation_table.hh"
#include "sim/rng.hh"
#include "sim/validate.hh"

using namespace deepum;
using namespace deepum::core;

// successors() must hand out a value-type view, never a reference
// into table internals (the former dangling-reference footgun).
static_assert(
    !std::is_reference_v<decltype(std::declval<const BlockCorrelationTable &>()
                                      .successors(mem::BlockId{}))>,
    "successors() must return a view by value");

namespace {

/** SplitMix64 avalanche — the table's published set-mapping spec. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Run the table's own audit; a violation fails the test. */
void
audit(const BlockCorrelationTable &t)
{
    sim::CheckContext ctx("BlockCorrelationTable", "test",
                          [&](std::ostream &os) { t.dumpState(os); });
    t.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

void
auditExec(const ExecCorrelationTable &t)
{
    sim::CheckContext ctx("ExecCorrelationTable", "test",
                          [&](std::ostream &os) { t.dumpState(os); });
    t.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

// ---------------------------------------------------------------
// Block-table reference model: a fixed array of ways per set, each
// empty or holding an entry, replicating the documented policies
// (first-empty-way-else-strict-LRU victim, MRU successor insert with
// drop-at-capacity, epoch-window freshness) over plain vectors. Way
// positions are modelled so freshTags() order can be checked too.
// ---------------------------------------------------------------

struct RefEntry {
    mem::BlockId tag;
    std::uint64_t lastUse;
    std::uint32_t lastEpoch;
    std::vector<mem::BlockId> succs; ///< MRU first
};

struct RefTable {
    BlockTableConfig cfg;
    /** sets[s][w] is way w of set s; nullopt when empty. */
    std::vector<std::vector<std::optional<RefEntry>>> sets;
    std::uint64_t clock = 0;
    std::uint32_t epoch = 0;

    explicit RefTable(const BlockTableConfig &c)
        : cfg(c), sets(c.numRows,
                       std::vector<std::optional<RefEntry>>(c.assoc))
    {}

    std::size_t
    setOf(mem::BlockId b) const
    {
        return static_cast<std::size_t>(mix(b) % cfg.numRows);
    }

    std::optional<RefEntry> *
    findWay(mem::BlockId b)
    {
        for (auto &w : sets[setOf(b)])
            if (w && w->tag == b)
                return &w;
        return nullptr;
    }

    RefEntry *
    find(mem::BlockId b)
    {
        std::optional<RefEntry> *w = findWay(b);
        return w != nullptr ? &**w : nullptr;
    }

    void
    record(mem::BlockId prev, mem::BlockId next)
    {
        RefEntry *e = find(prev);
        if (e == nullptr) {
            auto &set = sets[setOf(prev)];
            // The first empty way wins; otherwise strict-< LRU, so
            // the earliest minimum survives ties.
            std::optional<RefEntry> *victim = nullptr;
            for (auto &w : set) {
                if (!w) {
                    victim = &w;
                    break;
                }
            }
            if (victim == nullptr) {
                victim = &set[0];
                for (auto &w : set)
                    if (w->lastUse < (*victim)->lastUse)
                        victim = &w;
            }
            *victim = RefEntry{prev, 0, 0, {}};
            e = &**victim;
        }
        e->lastUse = ++clock;
        e->lastEpoch = epoch;
        auto it = std::find(e->succs.begin(), e->succs.end(), next);
        if (it != e->succs.end())
            e->succs.erase(it);
        else if (e->succs.size() == cfg.numSuccs)
            e->succs.pop_back(); // drop LRU at capacity
        e->succs.insert(e->succs.begin(), next);
    }

    void
    refresh(mem::BlockId b)
    {
        if (RefEntry *e = find(b)) {
            e->lastUse = ++clock;
            e->lastEpoch = epoch;
        }
    }

    void
    erase(mem::BlockId b)
    {
        if (std::optional<RefEntry> *w = findWay(b))
            w->reset();
    }

    void
    eraseRange(mem::BlockId first, mem::BlockId end)
    {
        auto dead = [&](mem::BlockId b) {
            return b >= first && b < end;
        };
        for (auto &set : sets) {
            for (auto &w : set) {
                if (!w)
                    continue;
                if (dead(w->tag)) {
                    w.reset();
                    continue;
                }
                auto &sc = w->succs;
                sc.erase(std::remove_if(sc.begin(), sc.end(), dead),
                         sc.end());
            }
        }
    }

    /** Occupied ways touched within @p window epochs, slab order. */
    std::vector<mem::BlockId>
    freshTags(std::uint32_t window) const
    {
        std::vector<mem::BlockId> tags;
        for (const auto &set : sets)
            for (const auto &w : set)
                if (w && w->lastEpoch + window >= epoch)
                    tags.push_back(w->tag);
        return tags;
    }

    std::size_t
    entryCount() const
    {
        std::size_t n = 0;
        for (const auto &set : sets)
            for (const auto &w : set)
                n += w.has_value();
        return n;
    }
};

/** Require @p got to list @p want, in order. */
void
expectSuccs(SuccView got, const std::vector<mem::BlockId> &want,
            mem::BlockId b)
{
    ASSERT_EQ(got.size(), want.size()) << "block " << b;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "block " << b << " slot " << i;
}

/** Compare every block the model knows (and misses) to the table. */
void
compareAll(const BlockCorrelationTable &t, RefTable &m,
           mem::BlockId universe)
{
    ASSERT_EQ(t.entryCount(), m.entryCount());
    ASSERT_EQ(t.epoch(), m.epoch);
    for (std::uint32_t w : {0u, 1u, 4u})
        ASSERT_EQ(t.freshTags(w), m.freshTags(w)) << "window " << w;
    for (mem::BlockId b = 0; b < universe; ++b) {
        const RefEntry *e = m.find(b);
        SuccView got = t.successors(b);
        if (e == nullptr) {
            ASSERT_TRUE(got.empty()) << "block " << b;
            continue;
        }
        ASSERT_NO_FATAL_FAILURE(expectSuccs(got, e->succs, b));
    }
    audit(t);
}

/**
 * Drive the table and the model through one long random op sequence
 * — record, erase, eraseRange, refresh, the chain walk's fused visit
 * with and without an index hint, stamping a fresh sweep by index,
 * captureStartEnd — comparing them at regular checkpoints.
 */
void
matchReferenceModel(const BlockTableConfig &cfg, mem::BlockId universe,
                    std::uint64_t seed)
{
    BlockCorrelationTable t(cfg);
    RefTable m(cfg);
    sim::Rng rng(seed);
    // The last sweep's indices and the tags they named then: later
    // inserts and erases shift or retag entries under them.
    std::vector<BlockCorrelationTable::EntryIndex> fresh;
    std::vector<mem::BlockId> swept;
    int valid_hints = 0;
    int stale_hints = 0;

    for (int step = 0; step < 8000; ++step) {
        std::uint64_t op = rng.below(106);
        if (op < 64) {
            mem::BlockId prev = rng.below(universe);
            mem::BlockId next = rng.below(universe);
            t.record(prev, next);
            m.record(prev, next);
        } else if (op < 72) {
            mem::BlockId b = rng.below(universe);
            t.erase(b);
            m.erase(b);
        } else if (op < 79) {
            mem::BlockId first = rng.below(universe);
            mem::BlockId end =
                std::min<mem::BlockId>(first + 1 + rng.below(8),
                                       universe);
            t.eraseRange(first, end);
            m.eraseRange(first, end);
        } else if (op < 86) {
            mem::BlockId b = rng.below(universe);
            t.refresh(b);
            m.refresh(b);
        } else if (op < 91) {
            // The chain walk's visit: refresh, then successors.
            mem::BlockId b = rng.below(universe);
            SuccView got = t.visit(b);
            m.refresh(b);
            const RefEntry *e = m.find(b);
            ASSERT_NO_FATAL_FAILURE(expectSuccs(
                got, e != nullptr ? e->succs : std::vector<mem::BlockId>{},
                b));
        } else if (op < 97) {
            // A hinted visit, as the chain walk makes for swept
            // entries. The model ignores the hint: a plain visit.
            mem::BlockId b = rng.below(universe);
            BlockCorrelationTable::EntryIndex hint =
                BlockCorrelationTable::kNoEntry;
            std::uint64_t kind = rng.below(8);
            if (kind < 5 && !fresh.empty()) {
                // A swept tag with its index from that sweep.
                std::size_t k = rng.below(fresh.size());
                b = swept[k];
                hint = fresh[k];
                bool valid =
                    hint < t.entryCount() && t.tagAt(hint) == b;
                ++(valid ? valid_hints : stale_hints);
            } else if (kind < 6) {
                hint = static_cast<BlockCorrelationTable::EntryIndex>(
                    rng.below(t.entryCount() + 4));
            } else if (kind < 7) {
                hint = static_cast<BlockCorrelationTable::EntryIndex>(
                    t.entryCount() + 1);
            } // else no hint
            SuccView got = t.visit(b, hint);
            m.refresh(b);
            const RefEntry *e = m.find(b);
            ASSERT_NO_FATAL_FAILURE(expectSuccs(
                got, e != nullptr ? e->succs : std::vector<mem::BlockId>{},
                b));
        } else if (op < 101) {
            // Kernel entry: sweep the fresh entries, then stamp a
            // random subset by index, in sweep order.
            std::uint32_t window = static_cast<std::uint32_t>(rng.below(5));
            t.freshEntries(window, fresh);
            std::vector<mem::BlockId> want = m.freshTags(window);
            ASSERT_EQ(fresh.size(), want.size());
            swept = want;
            for (std::size_t k = 0; k < fresh.size(); ++k) {
                ASSERT_EQ(t.tagAt(fresh[k]), want[k]) << "fresh " << k;
                if (rng.below(2) != 0) {
                    t.refreshAt(fresh[k]);
                    m.refresh(want[k]);
                }
            }
        } else {
            // Only the epoch bump matters to the model; start/end
            // pointers do not feed the slab.
            t.captureStartEnd(rng.below(universe), rng.below(universe),
                              static_cast<std::uint32_t>(rng.below(16)));
            ++m.epoch;
        }
        if (step % 97 == 0) {
            ASSERT_NO_FATAL_FAILURE(compareAll(t, m, universe))
                << "step " << step;
        }
    }
    ASSERT_NO_FATAL_FAILURE(compareAll(t, m, universe));
    EXPECT_GT(m.epoch, 100u); // the windows were exercised
    // Swept hints were both trusted and caught stale.
    EXPECT_GT(valid_hints, 0);
    EXPECT_GT(stale_hints, 0);
}

TEST(CorrelationDense, BlockTableMatchesReferenceModel)
{
    // Tiny geometry so set conflicts and successor capacity are hit
    // constantly: 4 sets x 2 ways, 3 successor slots, 64 blocks.
    {
        SCOPED_TRACE("4 x 2");
        matchReferenceModel(BlockTableConfig{4, 2, 3}, 64, 2024);
    }
    // 50 x 3 = 150 ways: three occupancy words, the last one partial.
    SCOPED_TRACE("50 x 3");
    matchReferenceModel(BlockTableConfig{50, 3, 4}, 400, 77);
}

TEST(CorrelationDense, SetConflictEvictsStrictLru)
{
    // One set, one way: every distinct tag evicts the previous one,
    // and the survivor's successors never leak into the newcomer.
    BlockTableConfig cfg{1, 1, 4};
    BlockCorrelationTable t(cfg);
    t.record(10, 1);
    t.record(10, 2);
    ASSERT_EQ(t.successors(10).size(), 2u);
    t.record(20, 7); // conflict: evicts tag 10
    EXPECT_TRUE(t.successors(10).empty());
    auto s = t.successors(20);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0], 7u);
    audit(t);
}

TEST(CorrelationDense, MruReorderAtCapacityMatchesModel)
{
    // Fill to capacity, then re-record the LRU successor: it must
    // rotate to MRU without growing, exactly like the model.
    BlockTableConfig cfg{2, 2, 3};
    BlockCorrelationTable t(cfg);
    RefTable m(cfg);
    for (mem::BlockId n : {1, 2, 3, 4, 2, 1, 9}) {
        t.record(100, n);
        m.record(100, n);
    }
    auto got = t.successors(100);
    const auto &want = m.find(100)->succs;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "slot " << i;
    EXPECT_EQ(got.size(), 3u); // capped at numSuccs
    audit(t);
}

TEST(CorrelationDense, SuccViewTracksItsEntryUntilAnInsert)
{
    // A view points into the packed successor array. While no entry
    // is inserted or erased, records into existing entries only
    // rotate successors in place, and a held view sees them. Tag 9
    // maps to set 3 and tag 2 to set 2 of this 4 x 2 table.
    BlockTableConfig cfg{4, 2, 4};
    BlockCorrelationTable t(cfg);
    RefTable m(cfg);
    auto both = [&](mem::BlockId prev, mem::BlockId next) {
        t.record(prev, next);
        m.record(prev, next);
    };
    both(9, 1);
    both(2, 1); // both tags live before the view is taken
    SuccView v = t.successors(9);
    ASSERT_EQ(v.size(), 1u);
    for (mem::BlockId n = 2; n < 100; ++n)
        both(n % 2 ? 9 : 2, n);
    both(9, 42);
    EXPECT_EQ(t.entryCount(), 2u); // no insert happened
    EXPECT_EQ(v.begin(), t.successors(9).begin());
    EXPECT_EQ(v.front(), 42u); // the held view sees the MRU update

    // Tags 3, 10 and 11 fill ways of sets 0 and 1, ahead of tag 9's
    // entry in way order, so its successor window moves; successors()
    // taken afterwards returns the updated list.
    for (mem::BlockId b : {3, 10, 11})
        both(b, b + 100);
    both(9, 43);
    EXPECT_EQ(t.entryCount(), 5u);
    ASSERT_NO_FATAL_FAILURE(expectSuccs(t.successors(9),
                                        m.find(9)->succs, 9));
    audit(t);
}

TEST(CorrelationDense, ConstructionAllocatesBitmapAndRankBasesOnly)
{
    // The default geometry: 2048 x 2 ways of 4 successors, 224.5 KiB
    // of Table-4 storage. The host builds 64 bitmap words and 64 rank
    // bases (768 B); entries arrive with records.
    BlockTableConfig cfg{2048, 2, 4};
    std::size_t bytes = 0;
    {
        AllocWindow w;
        BlockCorrelationTable t(cfg);
        bytes = w.bytes();
        EXPECT_EQ(t.entryCount(), 0u);
        EXPECT_EQ(t.sizeBytes(), 2048u * 2 * (8 + 8 + 4 * 8) + 16);
    }
    EXPECT_LE(bytes, 1024u);
}

TEST(CorrelationDense, SteadyStateRecordPathDoesNotAllocate)
{
    BlockTableConfig cfg{64, 2, 4};
    const std::size_t ways = std::size_t(cfg.numRows) * cfg.assoc;
    BlockCorrelationTable t(cfg);
    std::vector<BlockCorrelationTable::EntryIndex> scratch;
    scratch.reserve(ways);

    // Warm-up: 512 tags over 128 ways fill every way, so the packed
    // arrays reach their largest size; after it every miss replaces.
    auto step = [&](int i, std::uint64_t &sink) {
        mem::BlockId prev = i % 512;
        t.record(prev, (prev + 1) % 512);
        for (mem::BlockId s : t.successors(prev))
            sink += s;
        for (mem::BlockId s : t.visit((prev + 7) % 512))
            sink += s;
        if (i % 64 == 0) {
            t.freshEntries(4, scratch);
            for (BlockCorrelationTable::EntryIndex e : scratch)
                t.refreshAt(e);
            sink += scratch.size();
        }
    };
    std::uint64_t sink = 0;
    for (int i = 0; i < 512; ++i)
        step(i, sink);
    ASSERT_EQ(t.entryCount(), ways);

    AllocWindow w;
    for (int i = 0; i < 20000; ++i)
        step(i, sink);
    EXPECT_EQ(w.count(), 0u) << "sink=" << sink;
}

// ---------------------------------------------------------------
// Exec-table reference model: per-ExecId record vector, MRU first.
// ---------------------------------------------------------------

struct RefExec {
    std::map<ExecId, std::vector<ExecCorrelationTable::Record>> recs;

    void
    record(ExecId cur, const ExecHistory &hist, ExecId next)
    {
        auto &v = recs[cur];
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i].hist == hist && v[i].next == next) {
                auto hit = v[i];
                v.erase(v.begin() + i);
                v.insert(v.begin(), hit);
                return;
            }
        }
        v.insert(v.begin(), ExecCorrelationTable::Record{hist, next});
    }

    ExecId
    predict(ExecId cur, const ExecHistory &hist, bool mru) const
    {
        auto it = recs.find(cur);
        if (it == recs.end() || it->second.empty())
            return kNoExecId;
        for (const auto &r : it->second)
            if (r.hist == hist)
                return r.next;
        return mru ? it->second.front().next : kNoExecId;
    }
};

TEST(CorrelationDense, ExecTableMatchesReferenceModel)
{
    // Few IDs and histories so entries routinely spill past the
    // inline capacity and the MRU dedupe is hit across the
    // inline/overflow boundary.
    constexpr ExecId kIds = 6;
    ExecCorrelationTable t;
    RefExec m;
    sim::Rng rng(77);

    auto randHist = [&] {
        return ExecHistory{ExecId(rng.below(kIds)),
                           ExecId(rng.below(kIds)),
                           ExecId(rng.below(kIds))};
    };

    for (int step = 0; step < 4000; ++step) {
        ExecId cur = ExecId(rng.below(kIds));
        ExecHistory h = randHist();
        ExecId next = ExecId(rng.below(kIds));
        t.record(cur, h, next);
        m.record(cur, h, next);

        // Probe both fallback modes with a random (often missing)
        // history, plus the just-recorded one.
        ExecHistory q = rng.below(2) ? h : randHist();
        bool mru = rng.below(2) != 0;
        ASSERT_EQ(t.predict(cur, q, mru), m.predict(cur, q, mru));
        ASSERT_EQ(t.recordCount(cur), m.recs[cur].size());
        if (step % 129 == 0)
            auditExec(t);
    }
    ASSERT_EQ(t.entryCount(), m.recs.size());
    auditExec(t);
}

TEST(CorrelationDense, ExecTableSteadyStateDoesNotAllocate)
{
    ExecCorrelationTable t;
    ExecHistory h{1, 2, 3};
    t.record(0, h, 4); // the only history this kernel ever sees
    AllocWindow w;
    ExecId sink = 0;
    for (int i = 0; i < 20000; ++i) {
        t.record(0, h, 4); // duplicate: MRU move, no growth
        sink ^= t.predict(0, h, true);
    }
    EXPECT_EQ(w.count(), 0u) << "sink=" << sink;
}

TEST(CorrelationDense, TableSetLookupIsDenseAndLazy)
{
    BlockCorrelationTableSet set{BlockTableConfig{8, 2, 4}};
    EXPECT_EQ(set.find(0), nullptr);
    EXPECT_EQ(set.find(kNoExecId), nullptr); // sentinel fails bounds
    auto &t3 = set.getOrCreate(3);
    EXPECT_EQ(set.tableCount(), 1u);
    EXPECT_EQ(set.find(3), &t3);
    EXPECT_EQ(set.find(2), nullptr); // hole: never allocated
    set.getOrCreate(0);
    EXPECT_EQ(set.tableCount(), 2u);

    // forEachTable visits in id order.
    std::vector<ExecId> order;
    set.forEachTable([&](ExecId id, const BlockCorrelationTable &) {
        order.push_back(id);
    });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 3u);

    sim::CheckContext ctx("BlockCorrelationTableSet", "test",
                          [&](std::ostream &os) { set.dumpState(os); });
    set.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

} // namespace
