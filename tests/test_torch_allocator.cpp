/**
 * @file
 * Unit tests for the PyTorch-style caching allocator: rounding,
 * pool selection, split/coalesce, emptyCache, OOM-retry, and the
 * active/inactive notifications that drive DeepUM's invalidation.
 * A reference model (the node-based allocator the flat one replaced)
 * checks it op for op on seeded random malloc/free/emptyCache runs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mem/va_space.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "torch/allocator.hh"
#include "torch/segment_source.hh"

using namespace deepum;
using namespace deepum::torch;

namespace {

/** Source backed by a plain VA space, recording notifications. */
class TestSource : public SegmentSource
{
  public:
    explicit TestSource(std::uint64_t capacity) : va_(capacity) {}

    mem::VAddr
    allocSegment(std::uint64_t bytes) override
    {
        ++segAllocs;
        return va_.allocate(bytes);
    }

    void
    freeSegment(mem::VAddr va) override
    {
        ++segFrees;
        va_.release(va);
    }

    void
    noteInactive(mem::VAddr va, std::uint64_t bytes,
                 bool inactive) override
    {
        // Signed byte ledger per address range start; the allocator
        // must keep global inactive bytes consistent.
        inactiveBytes += inactive ? static_cast<std::int64_t>(bytes)
                                  : -static_cast<std::int64_t>(bytes);
        lastNote = {va, bytes, inactive};
    }

    mem::VaSpace va_;
    int segAllocs = 0;
    int segFrees = 0;
    std::int64_t inactiveBytes = 0;
    struct {
        mem::VAddr va;
        std::uint64_t bytes;
        bool inactive;
    } lastNote{};
};

struct Fixture {
    sim::StatSet stats;
    TestSource src{1 * sim::kGiB};
    CachingAllocator alloc{src, stats};
};

TEST(Allocator, RoundSizeRules)
{
    EXPECT_EQ(CachingAllocator::roundSize(1), kMinBlockSize);
    EXPECT_EQ(CachingAllocator::roundSize(512), 512u);
    EXPECT_EQ(CachingAllocator::roundSize(513), 1024u);
}

TEST(Allocator, SegmentSizeRules)
{
    // <= 1 MiB requests come from 2 MiB small segments.
    EXPECT_EQ(CachingAllocator::segmentSizeFor(512), kSmallBuffer);
    EXPECT_EQ(CachingAllocator::segmentSizeFor(kSmallSize),
              kSmallBuffer);
    // 1 MiB..10 MiB: 20 MiB large segments.
    EXPECT_EQ(CachingAllocator::segmentSizeFor(2 * sim::kMiB),
              kLargeBuffer);
    // >= 10 MiB: rounded to 2 MiB.
    EXPECT_EQ(CachingAllocator::segmentSizeFor(11 * sim::kMiB),
              12 * sim::kMiB);
}

TEST(Allocator, SmallRequestsShareOneSegment)
{
    Fixture f;
    std::vector<mem::VAddr> ptrs;
    for (int i = 0; i < 4; ++i)
        ptrs.push_back(f.alloc.malloc(100 * 1024));
    EXPECT_EQ(f.src.segAllocs, 1); // all inside one 2 MiB segment
    for (auto p : ptrs)
        f.alloc.free(p);
}

TEST(Allocator, LargeRequestUsesLargePool)
{
    Fixture f;
    mem::VAddr p = f.alloc.malloc(3 * sim::kMiB);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(f.alloc.sizeOf(p), 3 * sim::kMiB);
    EXPECT_EQ(f.alloc.reservedBytes(), kLargeBuffer);
    f.alloc.free(p);
}

TEST(Allocator, FreeThenMallocReusesBlock)
{
    Fixture f;
    mem::VAddr a = f.alloc.malloc(2 * sim::kMiB);
    f.alloc.free(a);
    int segs = f.src.segAllocs;
    mem::VAddr b = f.alloc.malloc(2 * sim::kMiB);
    EXPECT_EQ(a, b); // identical placement: what makes tables repeat
    EXPECT_EQ(f.src.segAllocs, segs);
    f.alloc.free(b);
}

TEST(Allocator, SmallestFitIsChosen)
{
    Fixture f;
    mem::VAddr big = f.alloc.malloc(16 * sim::kMiB);
    mem::VAddr small = f.alloc.malloc(11 * sim::kMiB);
    f.alloc.free(big);
    f.alloc.free(small);
    // A 10.5 MiB request must take the 11 MiB block, not 16 MiB.
    mem::VAddr p = f.alloc.malloc(10 * sim::kMiB + 512 * 1024);
    EXPECT_EQ(p, small);
    f.alloc.free(p);
}

TEST(Allocator, SplitAndCoalesceRoundTrip)
{
    Fixture f;
    // One 20 MiB segment, carve a 2 MiB block out of it.
    mem::VAddr a = f.alloc.malloc(2 * sim::kMiB);
    EXPECT_EQ(f.stats.get("torch.splits"), 1u);
    EXPECT_EQ(f.alloc.poolBlockCount(PoolKind::Large), 1u);
    f.alloc.free(a);
    EXPECT_EQ(f.stats.get("torch.merges"), 1u);
    // Whole segment is one free block again: emptyCache releases it.
    f.alloc.emptyCache();
    EXPECT_EQ(f.src.segFrees, 1);
    EXPECT_EQ(f.alloc.reservedBytes(), 0u);
}

TEST(Allocator, EmptyCacheKeepsPartiallyUsedSegments)
{
    Fixture f;
    mem::VAddr a = f.alloc.malloc(2 * sim::kMiB);
    mem::VAddr b = f.alloc.malloc(2 * sim::kMiB);
    f.alloc.free(a);
    f.alloc.emptyCache();
    EXPECT_EQ(f.src.segFrees, 0); // b still lives in the segment
    f.alloc.free(b);
    f.alloc.emptyCache();
    EXPECT_EQ(f.src.segFrees, 1);
}

TEST(Allocator, OomRetriesAfterFlushingCache)
{
    sim::StatSet stats;
    TestSource src(40 * sim::kMiB);
    CachingAllocator alloc(src, stats);
    mem::VAddr a = alloc.malloc(18 * sim::kMiB); // 18 MiB segment
    ASSERT_NE(a, 0u);
    alloc.free(a);
    // A 38 MiB request cannot come from the 18 MiB cached block and
    // the heap has only 22 MiB left — but flushing the cache frees
    // the whole heap and the retry must succeed.
    mem::VAddr c = alloc.malloc(38 * sim::kMiB);
    EXPECT_NE(c, 0u);
    EXPECT_EQ(stats.get("torch.cacheFlushes"), 1u);
    EXPECT_EQ(stats.get("torch.oomEvents"), 0u);
}

TEST(Allocator, HardOomReturnsZero)
{
    sim::StatSet stats;
    TestSource src(8 * sim::kMiB);
    CachingAllocator alloc(src, stats);
    EXPECT_EQ(alloc.malloc(64 * sim::kMiB), 0u);
    EXPECT_EQ(stats.get("torch.oomEvents"), 1u);
}

TEST(Allocator, InactiveBytesLedgerIsConsistent)
{
    Fixture f;
    // Everything reserved minus active must equal inactive bytes.
    std::vector<mem::VAddr> live;
    for (int i = 0; i < 10; ++i)
        live.push_back(f.alloc.malloc((i + 1) * 300 * 1024));
    for (std::size_t i = 0; i < live.size(); i += 2) {
        f.alloc.free(live[i]);
        live[i] = 0;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(f.src.inactiveBytes),
              f.alloc.reservedBytes() - f.alloc.activeBytes());
    for (auto p : live)
        if (p)
            f.alloc.free(p);
    EXPECT_EQ(static_cast<std::uint64_t>(f.src.inactiveBytes),
              f.alloc.reservedBytes());
}

TEST(Allocator, ActiveBytesTrackRoundedSizes)
{
    Fixture f;
    mem::VAddr p = f.alloc.malloc(1000); // rounds to 1024
    EXPECT_EQ(f.alloc.activeBytes(), 1024u);
    EXPECT_EQ(f.alloc.activeBlockCount(), 1u);
    f.alloc.free(p);
    EXPECT_EQ(f.alloc.activeBytes(), 0u);
}

TEST(Allocator, PeakStatsAreHighWatermarks)
{
    Fixture f;
    mem::VAddr a = f.alloc.malloc(4 * sim::kMiB);
    f.alloc.free(a);
    f.alloc.malloc(1 * sim::kMiB);
    EXPECT_EQ(f.stats.get("torch.peakActiveBytes"), 4 * sim::kMiB);
}

TEST(AllocatorDeath, FreeOfUnknownPanics)
{
    Fixture f;
    EXPECT_DEATH(f.alloc.free(0xdead000), "unknown");
}

TEST(Allocator, AllocationPatternIsDeterministic)
{
    // Two identical allocators performing the same sequence must
    // produce identical addresses — the property the correlation
    // tables rely on across iterations.
    sim::StatSet s1, s2;
    TestSource src1(256 * sim::kMiB), src2(256 * sim::kMiB);
    CachingAllocator a1(src1, s1), a2(src2, s2);
    std::vector<mem::VAddr> v1, v2;
    for (int round = 0; round < 3; ++round) {
        std::vector<mem::VAddr> p1, p2;
        for (int i = 0; i < 8; ++i) {
            p1.push_back(a1.malloc((i % 4 + 1) * 700 * 1024));
            p2.push_back(a2.malloc((i % 4 + 1) * 700 * 1024));
        }
        v1.insert(v1.end(), p1.begin(), p1.end());
        v2.insert(v2.end(), p2.begin(), p2.end());
        for (auto p : p1)
            a1.free(p);
        for (auto p : p2)
            a2.free(p);
    }
    EXPECT_EQ(v1, v2);
}

// ---------------------------------------------------------------------
// Reference model: the node-based allocator the flat one replaced.
// Pools are std::sets of heap records ordered by (size, addr), active
// blocks an unordered_map, segments a map. The flat allocator must
// give the same VAs, counters, stats and SegmentSource calls.
// ---------------------------------------------------------------------

class RefAllocator
{
  public:
    RefAllocator(SegmentSource &src, sim::StatSet &stats)
        : src_(src),
          allocs_(stats, "torch.allocs", ""),
          frees_(stats, "torch.frees", ""),
          splits_(stats, "torch.splits", ""),
          merges_(stats, "torch.merges", ""),
          segmentsAllocated_(stats, "torch.segmentsAllocated", ""),
          segmentsReleased_(stats, "torch.segmentsReleased", ""),
          cacheFlushes_(stats, "torch.cacheFlushes", ""),
          oomEvents_(stats, "torch.oomEvents", ""),
          peakActiveBytes_(stats, "torch.peakActiveBytes", ""),
          peakReservedBytes_(stats, "torch.peakReservedBytes", "")
    {
    }

    ~RefAllocator()
    {
        for (Block *b : small_)
            delete b;
        for (Block *b : large_)
            delete b;
        for (auto &[va, b] : active_)
            delete b;
    }

    mem::VAddr
    malloc(std::uint64_t size)
    {
        std::uint64_t rounded = CachingAllocator::roundSize(size);
        PoolKind kind =
            rounded <= kSmallSize ? PoolKind::Small : PoolKind::Large;
        Block *b = findFree(kind, rounded);
        if (b == nullptr)
            b = allocSegmentBlock(kind, rounded);
        if (b == nullptr) {
            ++oomEvents_;
            return 0;
        }
        maybeSplit(b, rounded);
        b->active = true;
        active_.emplace(b->addr, b);
        src_.noteInactive(b->addr, b->size, false);
        cachedBytes_ -= b->size;
        activeBytes_ += b->size;
        peakActiveBytes_.max(activeBytes_);
        ++allocs_;
        return b->addr;
    }

    void
    free(mem::VAddr va)
    {
        auto it = active_.find(va);
        DEEPUM_ASSERT(it != active_.end(), "reference: unknown va");
        Block *b = it->second;
        active_.erase(it);
        b->active = false;
        src_.noteInactive(b->addr, b->size, true);
        activeBytes_ -= b->size;
        cachedBytes_ += b->size;
        ++frees_;
        b = tryMerge(b, b->prev);
        b = tryMerge(b, b->next);
        poolFor(b->pool).insert(b);
    }

    std::uint64_t
    sizeOf(mem::VAddr va) const
    {
        auto it = active_.find(va);
        return it == active_.end() ? 0 : it->second->size;
    }

    void
    emptyCache()
    {
        auto sweep = [this](Pool &pool) {
            for (auto it = pool.begin(); it != pool.end();) {
                Block *b = *it;
                if (b->prev != nullptr || b->next != nullptr ||
                    b->addr != b->segBase) {
                    ++it;
                    continue;
                }
                it = pool.erase(it);
                auto seg = segments_.find(b->segBase);
                DEEPUM_ASSERT(seg != segments_.end() &&
                                  seg->second == b->size,
                              "reference: segment mismatch");
                cachedBytes_ -= b->size;
                reservedBytes_ -= b->size;
                segments_.erase(seg);
                src_.noteInactive(b->addr, b->size, false);
                src_.freeSegment(b->addr);
                ++segmentsReleased_;
                delete b;
            }
        };
        sweep(small_);
        sweep(large_);
    }

    std::uint64_t activeBytes() const { return activeBytes_; }
    std::uint64_t cachedBytes() const { return cachedBytes_; }
    std::uint64_t reservedBytes() const { return reservedBytes_; }
    std::size_t activeBlockCount() const { return active_.size(); }
    std::size_t segmentCount() const { return segments_.size(); }

    std::size_t
    poolBlockCount(PoolKind pool) const
    {
        return pool == PoolKind::Small ? small_.size() : large_.size();
    }

  private:
    struct Block {
        mem::VAddr addr = 0;
        std::uint64_t size = 0;
        bool active = false;
        PoolKind pool = PoolKind::Large;
        Block *prev = nullptr;
        Block *next = nullptr;
        mem::VAddr segBase = 0;
    };

    struct SizeAddrLess {
        bool
        operator()(const Block *a, const Block *b) const
        {
            return std::tie(a->size, a->addr) < std::tie(b->size, b->addr);
        }
    };

    using Pool = std::set<Block *, SizeAddrLess>;

    Pool &poolFor(PoolKind kind)
    {
        return kind == PoolKind::Small ? small_ : large_;
    }

    Block *
    findFree(PoolKind kind, std::uint64_t rounded)
    {
        Pool &pool = poolFor(kind);
        Block key;
        key.size = rounded;
        auto it = pool.lower_bound(&key);
        if (it == pool.end())
            return nullptr;
        Block *b = *it;
        pool.erase(it);
        return b;
    }

    Block *
    allocSegmentBlock(PoolKind kind, std::uint64_t rounded)
    {
        std::uint64_t seg_size = CachingAllocator::segmentSizeFor(rounded);
        mem::VAddr va = src_.allocSegment(seg_size);
        if (va == 0) {
            ++cacheFlushes_;
            emptyCache();
            va = src_.allocSegment(seg_size);
        }
        if (va == 0)
            return nullptr;
        segments_.emplace(va, seg_size);
        ++segmentsAllocated_;
        reservedBytes_ += seg_size;
        peakReservedBytes_.max(reservedBytes_);
        auto *b = new Block;
        b->addr = va;
        b->size = seg_size;
        b->pool = kind;
        b->segBase = va;
        src_.noteInactive(va, seg_size, true);
        cachedBytes_ += seg_size;
        return b;
    }

    void
    maybeSplit(Block *b, std::uint64_t rounded)
    {
        std::uint64_t remainder = b->size - rounded;
        bool should_split = b->pool == PoolKind::Small
                                ? remainder >= kMinBlockSize
                                : remainder > kSmallSize;
        if (!should_split)
            return;
        auto *rest = new Block;
        rest->addr = b->addr + rounded;
        rest->size = remainder;
        rest->pool = b->pool;
        rest->segBase = b->segBase;
        rest->prev = b;
        rest->next = b->next;
        if (b->next != nullptr)
            b->next->prev = rest;
        b->next = rest;
        b->size = rounded;
        poolFor(rest->pool).insert(rest);
        ++splits_;
    }

    Block *
    tryMerge(Block *b, Block *neighbour)
    {
        if (neighbour == nullptr || neighbour->active)
            return b;
        Block *lo = b->addr < neighbour->addr ? b : neighbour;
        Block *hi = lo == b ? neighbour : b;
        poolFor(neighbour->pool).erase(neighbour);
        lo->size += hi->size;
        lo->next = hi->next;
        if (hi->next != nullptr)
            hi->next->prev = lo;
        delete hi;
        ++merges_;
        return lo;
    }

    SegmentSource &src_;
    Pool small_;
    Pool large_;
    std::unordered_map<mem::VAddr, Block *> active_;
    std::map<mem::VAddr, std::uint64_t> segments_;
    std::uint64_t activeBytes_ = 0;
    std::uint64_t cachedBytes_ = 0;
    std::uint64_t reservedBytes_ = 0;
    sim::Scalar allocs_;
    sim::Scalar frees_;
    sim::Scalar splits_;
    sim::Scalar merges_;
    sim::Scalar segmentsAllocated_;
    sim::Scalar segmentsReleased_;
    sim::Scalar cacheFlushes_;
    sim::Scalar oomEvents_;
    sim::Scalar peakActiveBytes_;
    sim::Scalar peakReservedBytes_;
};

/** A VaSpace source that logs every call with its arguments. */
class LoggingSource : public SegmentSource
{
  public:
    explicit LoggingSource(std::uint64_t capacity) : va_(capacity) {}

    mem::VAddr
    allocSegment(std::uint64_t bytes) override
    {
        mem::VAddr va = va_.allocate(bytes);
        log.push_back({'A', va, bytes});
        return va;
    }

    void
    freeSegment(mem::VAddr va) override
    {
        log.push_back({'F', va, 0});
        va_.release(va);
    }

    void
    noteInactive(mem::VAddr va, std::uint64_t bytes,
                 bool inactive) override
    {
        log.push_back({inactive ? 'I' : 'a', va, bytes});
    }

    /** (call: A/F/I(nactive)/a(ctive), va, bytes), since last clear */
    std::vector<std::tuple<char, mem::VAddr, std::uint64_t>> log;

  private:
    mem::VaSpace va_;
};

/** name -> value of every scalar in @p stats. */
std::map<std::string, std::uint64_t>
scalars(const sim::StatSet &stats)
{
    std::map<std::string, std::uint64_t> out;
    for (const sim::Scalar *s : stats.all())
        out.emplace(s->name(), s->value());
    return out;
}

/** A request size that lands in the small, large or huge band. */
std::uint64_t
randomRequest(sim::Rng &rng)
{
    switch (rng.below(4)) {
      case 0: // small pool, often sub-block and equal-size
        return 1 + rng.below(kSmallSize);
      case 1:
        return (1 + rng.below(8)) * 128 * 1024;
      case 2: // large pool, 20 MiB segments
        return kSmallSize + 1 + rng.below(kMinLargeAlloc - kSmallSize);
      default: // its own segment
        return kMinLargeAlloc + rng.below(24 * sim::kMiB);
    }
}

TEST(AllocatorModel, MatchesTheNodeBasedReferenceOpForOp)
{
    std::uint64_t flushes = 0, ooms = 0, releases = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        // Small enough that the heap runs out: flush-and-retry and
        // hard OOM both occur.
        constexpr std::uint64_t kHeap = 160 * sim::kMiB;
        sim::StatSet dut_stats, ref_stats;
        LoggingSource dut_src(kHeap), ref_src(kHeap);
        CachingAllocator dut(dut_src, dut_stats);
        RefAllocator ref(ref_src, ref_stats);
        sim::Rng rng(seed);
        std::vector<mem::VAddr> live;

        for (int op = 0; op < 3000; ++op) {
            SCOPED_TRACE(testing::Message() << "op " << op);
            std::uint64_t dice = rng.below(100);
            if (dice < 2) {
                dut.emptyCache();
                ref.emptyCache();
            } else if (dice < 50 && !live.empty()) {
                std::size_t i = rng.below(live.size());
                mem::VAddr va = live[i];
                live[i] = live.back();
                live.pop_back();
                ASSERT_EQ(dut.sizeOf(va), ref.sizeOf(va));
                dut.free(va);
                ref.free(va);
                ASSERT_EQ(dut.sizeOf(va), 0u);
            } else {
                std::uint64_t bytes = randomRequest(rng);
                mem::VAddr va = dut.malloc(bytes);
                ASSERT_EQ(va, ref.malloc(bytes));
                if (va != 0) {
                    live.push_back(va);
                    ASSERT_EQ(dut.sizeOf(va), ref.sizeOf(va));
                }
            }
            ASSERT_EQ(dut.activeBytes(), ref.activeBytes());
            ASSERT_EQ(dut.cachedBytes(), ref.cachedBytes());
            ASSERT_EQ(dut.reservedBytes(), ref.reservedBytes());
            ASSERT_EQ(dut.activeBlockCount(), ref.activeBlockCount());
            ASSERT_EQ(dut.segmentCount(), ref.segmentCount());
            ASSERT_EQ(dut.poolBlockCount(PoolKind::Small),
                      ref.poolBlockCount(PoolKind::Small));
            ASSERT_EQ(dut.poolBlockCount(PoolKind::Large),
                      ref.poolBlockCount(PoolKind::Large));
            ASSERT_EQ(scalars(dut_stats), scalars(ref_stats));
            ASSERT_EQ(dut_src.log, ref_src.log);
            dut_src.log.clear();
            ref_src.log.clear();
        }
        flushes += dut_stats.get("torch.cacheFlushes");
        ooms += dut_stats.get("torch.oomEvents");
        releases += dut_stats.get("torch.segmentsReleased");
    }
    // The runs reached the paths the model exists to check.
    EXPECT_GT(flushes, 0u);
    EXPECT_GT(ooms, 0u);
    EXPECT_GT(releases, 0u);
}

} // namespace
