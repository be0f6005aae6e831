/**
 * @file
 * Property tests for the dense uvm::BlockStore: a long random
 * register/unregister/access/LRU op sequence is mirrored against a
 * trivially-correct reference model (ordered map + std::list), with
 * full-state comparison and the store's own invariant audit
 * interleaved, plus targeted tests of the slot layout (a block's slot
 * is its offset in the UM heap) and the registration panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/validate.hh"
#include "uvm/block_store.hh"

using namespace deepum;
using namespace deepum::uvm;

namespace {

constexpr mem::BlockId kBase = mem::kUmBase / mem::kBlockBytes;
constexpr std::uint64_t kAreas = 48;   ///< disjoint candidate slots
constexpr std::uint64_t kMaxRun = 24;  ///< longest run per area

/** Base block of candidate area @p a (areas can never overlap). */
constexpr mem::BlockId
areaBase(std::uint64_t a)
{
    return kBase + a * 2 * kMaxRun;
}

/** The trivially-correct shadow of everything BlockStore tracks. */
struct RefModel {
    /** area -> [first, end) of its registered run */
    std::map<std::uint64_t, std::pair<mem::BlockId, mem::BlockId>> runs;
    /** registered block -> last migrateSeq written through at() */
    std::map<mem::BlockId, std::uint64_t> state;
    std::list<mem::BlockId> lru;
    std::set<mem::BlockId> inLru;

    bool
    registered(mem::BlockId b) const
    {
        return state.count(b) != 0;
    }
};

/** Run the store's own audit; a violation panics (fails the test). */
void
audit(const BlockStore &st)
{
    sim::CheckContext ctx("BlockStore", "test",
                          [&](std::ostream &os) { st.dumpState(os); });
    st.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

/** Compare every observable store property against the model. */
void
compareAll(const BlockStore &st, const RefModel &m)
{
    ASSERT_EQ(st.size(), m.state.size());
    ASSERT_EQ(st.lruSize(), m.lru.size());

    // Lookup agreement, including misses one past every run end.
    for (const auto &[area, run] : m.runs) {
        for (mem::BlockId b = run.first; b != run.second; ++b) {
            BlockIndex i = st.find(b);
            ASSERT_EQ(i, static_cast<BlockIndex>(b - kBase)) << "block " << b;
            ASSERT_EQ(st.idAt(i), b);
            ASSERT_EQ(st.at(i).migrateSeq, m.state.at(b));
        }
        ASSERT_FALSE(st.contains(run.second));
        ASSERT_FALSE(st.contains(run.first - 1));
    }

    // Misses below and above the registered span, including ids whose
    // offset from the span's base wraps.
    for (mem::BlockId b : {mem::BlockId(0), kBase - 1, kBase - 2 * kMaxRun,
                           areaBase(kAreas), areaBase(kAreas) + kMaxRun,
                           kNoBlock})
        ASSERT_FALSE(st.contains(b)) << "block " << b;

    // Whole-store iteration yields exactly the model's keys, in
    // BlockId order.
    std::vector<mem::BlockId> seen;
    st.forEachBlock(
        [&](mem::BlockId b, BlockIndex i) {
            ASSERT_EQ(st.idAt(i), b);
            seen.push_back(b);
        });
    ASSERT_EQ(seen.size(), m.state.size());
    auto it = m.state.begin();
    for (std::size_t k = 0; k < seen.size(); ++k, ++it)
        ASSERT_EQ(seen[k], it->first);

    // LRU order agreement.
    std::vector<mem::BlockId> lruGot;
    for (mem::BlockId b : st.lruOrder())
        lruGot.push_back(b);
    std::vector<mem::BlockId> lruWant(m.lru.begin(), m.lru.end());
    ASSERT_EQ(lruGot, lruWant);

    audit(st);
}

TEST(BlockStore, RandomOpsMatchReferenceModel)
{
    BlockStore st;
    RefModel m;
    sim::Rng rng(2023);
    std::uint64_t nextSeq = 1;

    for (int step = 0; step < 6000; ++step) {
        std::uint64_t op = rng.below(100);
        std::uint64_t area = rng.below(kAreas);

        if (op < 20) {
            // Register a run in a free area.
            if (m.runs.count(area) != 0)
                continue;
            mem::BlockId first = areaBase(area);
            mem::BlockId end = first + 1 + rng.below(kMaxRun);
            BlockIndex base = st.registerRun(first, end);
            ASSERT_NE(base, kNoBlockIndex);
            m.runs[area] = {first, end};
            for (mem::BlockId b = first; b != end; ++b)
                m.state[b] = 0;
        } else if (op < 32) {
            // Unregister a run (unlinking its blocks first, as the
            // driver does before dropping a range).
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            for (mem::BlockId b = first; b != end; ++b) {
                if (m.inLru.erase(b) != 0) {
                    st.lruErase(st.find(b));
                    m.lru.remove(b);
                }
                m.state.erase(b);
            }
            st.unregisterRun(first, end);
            m.runs.erase(it);
        } else if (op < 70) {
            // Probe a random block of the area, or one of the areas
            // past either end; write through the record when it is
            // live.
            std::uint64_t probe = rng.below(kAreas + 2);
            mem::BlockId b = probe == 0
                                 ? kBase - 1 - rng.below(2 * kMaxRun)
                                 : areaBase(probe - 1) +
                                       rng.below(2 * kMaxRun);
            BlockIndex i = st.find(b);
            ASSERT_EQ(i != kNoBlockIndex, m.registered(b))
                << "block " << b;
            if (i != kNoBlockIndex) {
                st.at(i).migrateSeq = nextSeq;
                m.state[b] = nextSeq;
                ++nextSeq;
            }
        } else if (op < 85) {
            // Link an unlinked block at the MRU end.
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            mem::BlockId b = first + rng.below(end - first);
            if (m.inLru.count(b) != 0)
                continue;
            st.lruPushBack(st.find(b));
            m.lru.push_back(b);
            m.inLru.insert(b);
        } else if (op < 95) {
            // Unlink a linked block.
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            mem::BlockId b = first + rng.below(end - first);
            if (m.inLru.count(b) == 0)
                continue;
            st.lruErase(st.find(b));
            m.lru.remove(b);
            m.inLru.erase(b);
        } else {
            compareAll(st, m);
        }
    }
    compareAll(st, m);
}

TEST(BlockStore, SlotIsHeapOffset)
{
    BlockStore st;
    EXPECT_EQ(st.registerRun(kBase + 5, kBase + 9), 5u);
    EXPECT_EQ(st.registerRun(kBase, kBase + 2), 0u);
    EXPECT_EQ(st.slabSize(), 9u);
    EXPECT_EQ(st.find(kBase + 7), 7u);
    EXPECT_EQ(st.idAt(7), kBase + 7);
    // The gap between the runs has slots but no registered blocks.
    EXPECT_EQ(st.slotOf(kBase + 3), 3u);
    EXPECT_EQ(st.find(kBase + 3), kNoBlockIndex);
    // Past the slab and below the heap there are no slots at all.
    EXPECT_EQ(st.slotOf(kBase + 9), kNoBlockIndex);
    EXPECT_EQ(st.slotOf(kBase - 1), kNoBlockIndex);
    audit(st);
}

TEST(BlockStore, ReregisterGetsSameSlotWithFreshRecord)
{
    BlockStore st;
    BlockIndex i = st.registerRun(kBase + 4, kBase + 6);
    st.at(i).migrateSeq = 42;
    st.at(i).pages = 17;
    st.unregisterRun(kBase + 4, kBase + 6);
    EXPECT_FALSE(st.contains(kBase + 4));
    EXPECT_EQ(st.slotOf(kBase + 4), i); // the slot stays the block's

    // Registering the same blocks again returns the same slot, with a
    // default record rather than the previous registration's state.
    BlockIndex j = st.registerRun(kBase + 4, kBase + 6);
    EXPECT_EQ(i, j);
    EXPECT_EQ(st.at(j).migrateSeq, 0u);
    EXPECT_EQ(st.at(j).pages, 0u);
    EXPECT_EQ(st.at(j).lruPrev, kNoBlockIndex);
    EXPECT_EQ(st.at(j).lruNext, kNoBlockIndex);
    audit(st);
}

TEST(BlockStoreDeath, OverlappingRegisterPanics)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 4);
    EXPECT_DEATH(st.registerRun(kBase + 3, kBase + 6),
                 "already registered");
}

TEST(BlockStoreDeath, UnknownUnregisterPanics)
{
    BlockStore st;
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 1),
                 "unregisterRange: unknown block");
}

TEST(BlockStoreDeath, PartialUnregisterPanics)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 4);
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 2),
                 "is not a registered run");
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 6),
                 "is not a registered run");
}

TEST(BlockStoreDeath, UnregisterSpanningTwoRunsPanics)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 4);
    st.registerRun(kBase + 4, kBase + 8);
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 8),
                 "is not a registered run");
}

TEST(BlockStoreDeath, RunBelowHeapPanics)
{
    BlockStore st;
    EXPECT_DEATH(st.registerRun(kBase - 2, kBase + 1),
                 "below the UM heap");
}

} // namespace
