/**
 * @file
 * Unit tests for the simulation substrate: event queue, stats,
 * SPSC queue, RNG, logging levels.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/spsc_queue.hh"
#include "sim/stats.hh"

using namespace deepum;
using namespace deepum::sim;

namespace {

class SilentLogs : public ::testing::Test
{
  protected:
    void SetUp() override { prev_ = setLogLevel(LogLevel::Silent); }
    void TearDown() override { setLogLevel(prev_); }
    LogLevel prev_ = LogLevel::Info;
};

// ---------------------------------------------------------------- events

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SimultaneousEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(10, [&chain] { chain(); });
    };
    eq.schedule(0, [&chain] { chain(); });
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(1, [&] { ++n; });
    eq.schedule(2, [&] { ++n; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(n, 2);
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue eq;
    int n = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++n; });
    eq.run(4);
    EXPECT_EQ(n, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, ClearDropsPending)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(1, [&] { ++n; });
    eq.clear();
    eq.run();
    EXPECT_EQ(n, 0);
}

// A queue entry is a plain 40-byte record: heap moves copy it and
// dispatch never destroys anything.
static_assert(std::is_trivially_copyable_v<EventFn>);
static_assert(std::is_trivially_copyable_v<EventQueue::Entry>);
static_assert(sizeof(EventQueue::Entry) == 40);

TEST(EventFn, AcceptsOnlyTwoWordTriviallyCopyableCaptures)
{
    std::uint64_t a = 1, b = 2, c = 3;
    auto two_words = [&a, &b] { a += b; };
    auto three_words = [&a, &b, &c] { a += b + c; };
    std::function<void()> f = [] {};
    auto holds_function = [f] { f(); };
    auto shared = std::make_shared<int>(0);
    auto holds_shared_ptr = [shared] { ++*shared; }; // two words
    static_assert(std::is_constructible_v<EventFn, decltype(two_words)>);
    static_assert(!std::is_constructible_v<EventFn, decltype(three_words)>);
    static_assert(
        !std::is_constructible_v<EventFn, decltype(holds_function)>);
    static_assert(
        !std::is_constructible_v<EventFn, decltype(holds_shared_ptr)>);

    EventFn fn = two_words;
    EventFn copy = fn;
    copy();
    EXPECT_EQ(a, 3u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueueDeath, PastTickPanicNamesBothTicks)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    // The report must carry both the offending and the current tick.
    EXPECT_DEATH(eq.schedule(50, [] {}),
                 "scheduling event in the past: tick 50 < now 100");
}

TEST(LoggingDeath, AssertPrintsStringifiedCondition)
{
    int lhs = 1;
    EXPECT_DEATH(DEEPUM_ASSERT(lhs == 2, "unused"),
                 "assertion failed: lhs == 2");
}

TEST(LoggingDeath, AssertFormatsPrintfDetail)
{
    int got = 41;
    EXPECT_DEATH(
        DEEPUM_ASSERT(got == 42, "expected %d, got %d (%s)", 42, got,
                      "off by one"),
        "expected 42, got 41 \\(off by one\\)");
}

TEST(EventQueue, ClearResetsClockAndSequence)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.executed(), 1u);

    eq.clear();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_TRUE(eq.empty());

    // Back to the freshly-constructed state: tick 0 is schedulable
    // again (it would panic as "in the past" if the clock survived).
    int n = 0;
    eq.schedule(0, [&] { ++n; });
    eq.run();
    EXPECT_EQ(n, 1);
}

TEST(EventQueue, FarFutureEventsFireInOrder)
{
    // Far-apart ticks scheduled out of order, with long empty
    // stretches between them, still fire in (tick, seq) order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3'000'000, [&] { order.push_back(3); });
    eq.schedule(400'000, [&] { order.push_back(1); });
    eq.schedule(400'001, [&] { order.push_back(2); });
    eq.schedule(3'000'000, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 3'000'000u);
}

TEST(EventQueue, ScheduleCountersForPerfbench)
{
    // perfbench reads nearScheduled() as the schedule count and
    // overflowScheduled() as a far-future share that is always 0.
    EventQueue eq;
    eq.schedule(0, [] {});
    eq.schedule(3'000'000, [] {});
    eq.schedule(100, [&eq] { eq.scheduleIn(5'000'000, [] {}); });
    eq.run();
    EXPECT_EQ(eq.nearScheduled(), 4u);
    EXPECT_EQ(eq.overflowScheduled(), 0u);
    eq.clear();
    EXPECT_EQ(eq.nearScheduled(), 0u);
}

TEST(EventQueue, RunAheadRefusesWhenAnEventIsDueAtTheTick)
{
    // A step scheduled at 100 would take a larger seq than the event
    // already pending there, so that event fires first: the answer
    // must be no, and nothing may change.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(40, [&] {
        std::uint64_t executed = eq.executed();
        std::uint64_t scheduled = eq.nearScheduled();
        EXPECT_FALSE(eq.runAheadTo(100));
        EXPECT_EQ(eq.now(), 40u);
        EXPECT_EQ(eq.executed(), executed);
        EXPECT_EQ(eq.nearScheduled(), scheduled);
        eq.schedule(100, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunAheadRefusesWhenAnEventIsDueBefore)
{
    EventQueue eq;
    eq.schedule(99, [] {});
    EXPECT_FALSE(eq.runAheadTo(100));
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.nearScheduled(), 1u);
}

TEST(EventQueue, RunAheadAcceptsAnEmptyQueueAndLaterEvents)
{
    EventQueue eq;
    EXPECT_TRUE(eq.runAheadTo(0));
    EXPECT_TRUE(eq.runAheadTo(50));
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.nearScheduled(), 2u);

    int fired = 0;
    eq.schedule(101, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    EXPECT_TRUE(eq.runAheadTo(100));
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.nearScheduled(), 5u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(fired, 0);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, RunLimitCountsHeapDispatches)
{
    // One dispatch whose callback takes three steps in place counts
    // once against the limit, and four times in executed().
    EventQueue eq;
    int steps = 0;
    eq.schedule(10, [&] {
        ++steps;
        while (steps < 4 && eq.runAheadTo(eq.now() + 10))
            ++steps;
    });
    eq.schedule(1000, [&] { ++steps; });
    eq.run(1);
    EXPECT_EQ(steps, 4);
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueDeath, RunAheadIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.runAheadTo(50),
                 "scheduling event in the past: tick 50 < now 100");
}

namespace property {

/**
 * The seed's std::function binary-heap event queue, kept verbatim as
 * the ordering reference for the property test below.
 */
class RefQueue
{
  public:
    Tick now() const { return curTick_; }

    void
    schedule(Tick when, std::function<void()> fn)
    {
        heap_.push(Entry{when, nextSeq_++, std::move(fn)});
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        Entry e = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        curTick_ = e.when;
        e.fn();
        return true;
    }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace property

TEST(EventQueueProperty, MatchesReferenceHeapOnRandomPatterns)
{
    // Random self-expanding schedules: event k fires, logs itself,
    // and schedules its precomputed children. Delay classes cover
    // zero, short, medium and far-future delays. EventQueue must
    // produce the exact firing sequence of the reference heap.
    constexpr int kTotal = 5000;
    constexpr int kRoots = 32;

    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
        Rng rng(seed);
        std::vector<Tick> delay(kTotal);
        std::vector<int> kids(kTotal);
        for (int i = 0; i < kTotal; ++i) {
            std::uint64_t cls = rng.below(100);
            if (cls < 10)
                delay[i] = 0;
            else if (cls < 60)
                delay[i] = 1 + rng.below(500);
            else if (cls < 85)
                delay[i] = 1 + rng.below(50'000);
            else
                delay[i] = 1 + rng.below(2'000'000);
            kids[i] = static_cast<int>(rng.below(3));
        }

        auto runOne = [&](auto &q) {
            std::vector<std::pair<int, Tick>> log;
            int next = kRoots;
            std::function<void(int)> fire = [&](int id) {
                log.emplace_back(id, q.now());
                for (int j = 0; j < kids[id] && next < kTotal; ++j) {
                    int c = next++;
                    q.schedule(q.now() + delay[c],
                               [&fire, c] { fire(c); });
                }
            };
            for (int id = 0; id < kRoots; ++id)
                q.schedule(delay[id], [&fire, id] { fire(id); });
            while (q.step()) {
            }
            return log;
        };

        EventQueue eq;
        property::RefQueue ref;
        auto got = runOne(eq);
        auto want = runOne(ref);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(eq.now(), ref.now()) << "seed " << seed;
    }
}

TEST(EventQueueProperty, InPlaceStepsKeepTheReferenceOrder)
{
    // The same random self-expanding schedules, but each event's last
    // child is its tail step: the in-place run asks runAheadTo() and,
    // on yes, loops on that child instead of scheduling it. Firing
    // order, ticks and the event counters must all equal the
    // heap-only run, which the reference heap checks in turn.
    constexpr int kTotal = 5000;
    constexpr int kRoots = 32;

    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
        Rng rng(seed);
        std::vector<Tick> delay(kTotal);
        std::vector<int> kids(kTotal);
        for (int i = 0; i < kTotal; ++i) {
            std::uint64_t cls = rng.below(100);
            if (cls < 15)
                delay[i] = 0;
            else if (cls < 60)
                delay[i] = 1 + rng.below(500);
            else if (cls < 85)
                delay[i] = 1 + rng.below(50'000);
            else
                delay[i] = 1 + rng.below(2'000'000);
            kids[i] = static_cast<int>(rng.below(3));
        }

        std::uint64_t in_place = 0, refused = 0;
        auto runOne = [&](auto &q, auto &&may_run_in_place) {
            std::vector<std::pair<int, Tick>> log;
            int next = kRoots;
            std::function<void(int)> fire = [&](int id) {
                for (;;) {
                    log.emplace_back(id, q.now());
                    int last = -1;
                    for (int j = 0; j < kids[id] && next < kTotal; ++j) {
                        if (last >= 0)
                            q.schedule(q.now() + delay[last],
                                       [&fire, last] { fire(last); });
                        last = next++;
                    }
                    if (last < 0)
                        return;
                    Tick when = q.now() + delay[last];
                    if (!may_run_in_place(q, when)) {
                        q.schedule(when, [&fire, last] { fire(last); });
                        return;
                    }
                    id = last;
                }
            };
            for (int id = 0; id < kRoots; ++id)
                q.schedule(delay[id], [&fire, id] { fire(id); });
            while (q.step()) {
            }
            return log;
        };
        auto never = [](auto &, Tick) { return false; };
        auto ask = [&](EventQueue &q, Tick when) {
            bool yes = q.runAheadTo(when);
            ++(yes ? in_place : refused);
            return yes;
        };

        EventQueue heap_only, stepping;
        property::RefQueue ref;
        auto want = runOne(ref, never);
        auto heap_log = runOne(heap_only, never);
        auto got = runOne(stepping, ask);
        ASSERT_EQ(heap_log, want) << "seed " << seed;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(stepping.now(), ref.now()) << "seed " << seed;
        EXPECT_EQ(stepping.executed(), heap_only.executed())
            << "seed " << seed;
        EXPECT_EQ(stepping.nearScheduled(), heap_only.nearScheduled())
            << "seed " << seed;
        // Both answers occur, or the case proves nothing.
        EXPECT_GT(in_place, 100u) << "seed " << seed;
        EXPECT_GT(refused, 100u) << "seed " << seed;
    }
}

// ---------------------------------------------------------------- stats

TEST(Stats, ScalarArithmeticAndLookup)
{
    StatSet set;
    Scalar a(set, "x.count", "a counter");
    Scalar b(set, "x.peak", "a peak");
    ++a;
    a += 4;
    b.max(10);
    b.max(3); // must not lower it
    EXPECT_EQ(set.get("x.count"), 5u);
    EXPECT_EQ(set.get("x.peak"), 10u);
    EXPECT_TRUE(set.has("x.count"));
    EXPECT_FALSE(set.has("nope"));
}

TEST(Stats, ResetAllZeroes)
{
    StatSet set;
    Scalar a(set, "a", "");
    a += 7;
    set.resetAll();
    EXPECT_EQ(set.get("a"), 0u);
}

TEST(Stats, UnknownStatWarnsAndReturnsZero)
{
    auto prev = setLogLevel(LogLevel::Silent);
    StatSet set;
    EXPECT_EQ(set.get("missing"), 0u);
    setLogLevel(prev);
}

TEST(StatsDeath, DuplicateNamePanics)
{
    StatSet set;
    Scalar a(set, "dup", "");
    EXPECT_DEATH(Scalar(set, "dup", ""), "duplicate");
}

// ---------------------------------------------------------- distributions

TEST(Distribution, EmptyIsAllZero)
{
    StatSet set;
    Distribution d(set, "d", "");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
}

TEST(Distribution, MomentsTrackSamples)
{
    StatSet set;
    Distribution d(set, "d", "");
    for (std::uint64_t v : {2u, 4u, 6u, 8u})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.min(), 2u);
    EXPECT_EQ(d.max(), 8u);
    EXPECT_EQ(d.sum(), 20u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    // Population stddev of {2,4,6,8} = sqrt(5).
    EXPECT_NEAR(d.stddev(), 2.2360679, 1e-6);
}

TEST(Distribution, Log2BucketPlacement)
{
    StatSet set;
    Distribution d(set, "d", "");
    d.sample(0);   // bucket 0
    d.sample(1);   // [1,2)    -> bucket 1
    d.sample(2);   // [2,4)    -> bucket 2
    d.sample(3);   // [2,4)    -> bucket 2
    d.sample(4);   // [4,8)    -> bucket 3
    d.sample(255); // [128,256)-> bucket 8
    const auto &b = d.buckets();
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 2u);
    EXPECT_EQ(b[3], 1u);
    EXPECT_EQ(b[8], 1u);
}

TEST(Distribution, PercentilesBracketTheData)
{
    StatSet set;
    Distribution d(set, "d", "");
    for (std::uint64_t v = 1; v <= 100; ++v)
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    // Log2 buckets are coarse: only require the right ballpark.
    EXPECT_GE(d.percentile(50), 32.0);
    EXPECT_LE(d.percentile(50), 64.0);
    EXPECT_GE(d.percentile(99), 64.0);
    EXPECT_LE(d.percentile(99), 100.0);
}

TEST(Distribution, ConstantSamplesGiveExactPercentiles)
{
    StatSet set;
    Distribution d(set, "d", "");
    for (int i = 0; i < 10; ++i)
        d.sample(42);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 42.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, ResetAllForgetsSamples)
{
    StatSet set;
    Distribution d(set, "d", "");
    d.sample(5);
    d.sample(7);
    set.resetAll();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_EQ(d.buckets()[3], 0u);
    d.sample(9);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.min(), 9u);
}

TEST(Distribution, RegistersInStatSet)
{
    auto prev = setLogLevel(LogLevel::Silent);
    StatSet set;
    Distribution d(set, "lat", "a latency");
    EXPECT_TRUE(set.has("lat"));
    EXPECT_EQ(set.getDist("lat"), &d);
    EXPECT_EQ(set.getDist("missing"), nullptr);
    EXPECT_EQ(set.allDists().size(), 1u);
    setLogLevel(prev);
}

TEST(DistributionDeath, NameCollidesWithScalar)
{
    StatSet set;
    Scalar s(set, "shared", "");
    EXPECT_DEATH(Distribution(set, "shared", ""), "duplicate");
}

TEST(Stats, DumpJsonIsWellFormedAndSorted)
{
    StatSet set;
    Scalar b(set, "b.count", "");
    Scalar a(set, "a.count", "");
    Distribution d(set, "lat", "");
    a += 3;
    b += 1;
    d.sample(10);
    d.sample(20);

    std::ostringstream os;
    set.dumpJson(os);
    std::string j = os.str();

    // Scalars sorted by name, distribution block present.
    auto pa = j.find("\"a.count\": 3");
    auto pb = j.find("\"b.count\": 1");
    ASSERT_NE(pa, std::string::npos) << j;
    ASSERT_NE(pb, std::string::npos) << j;
    EXPECT_LT(pa, pb);
    EXPECT_NE(j.find("\"distributions\""), std::string::npos);
    EXPECT_NE(j.find("\"lat\""), std::string::npos);
    EXPECT_NE(j.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"min\": 10"), std::string::npos);
    EXPECT_NE(j.find("\"max\": 20"), std::string::npos);
    EXPECT_NE(j.find("\"mean\": 15"), std::string::npos);

    // Deterministic: a second dump is byte-identical.
    std::ostringstream os2;
    set.dumpJson(os2);
    EXPECT_EQ(j, os2.str());
}

// ---------------------------------------------------------------- spsc

TEST(SpscQueue, FifoOrder)
{
    SpscQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_FALSE(q.push(99)); // full
    EXPECT_EQ(q.dropped(), 1u);
    int v;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v));
}

TEST(SpscQueue, WrapsAround)
{
    SpscQueue<int> q(3);
    int v;
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(q.push(round));
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, round);
    }
    EXPECT_EQ(q.pushed(), 10u);
}

TEST(SpscQueue, SizeTracksContents)
{
    SpscQueue<int> q(5);
    EXPECT_EQ(q.capacity(), 5u);
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.size(), 2u);
    int v;
    q.pop(v);
    EXPECT_EQ(q.size(), 1u);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FrontPeeksWithoutPop)
{
    SpscQueue<int> q(2);
    q.push(42);
    EXPECT_EQ(q.front(), 42);
    EXPECT_EQ(q.size(), 1u);
}

TEST(SpscQueue, GrowthOfAWrappedRingKeepsFifoOrder)
{
    SpscQueue<int> q(1000);
    int v;
    // Wrap the first ring: its head sits mid-ring when it fills.
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(q.push(i));
    for (int i = 0; i < 7; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    int next_in = 10, next_out = 7;
    // Grow several times, popping now and then, and audit the order.
    for (int step = 0; step < 600; ++step) {
        ASSERT_TRUE(q.push(next_in++));
        if (step % 3 == 0) {
            ASSERT_TRUE(q.pop(v));
            EXPECT_EQ(v, next_out++);
        }
        ASSERT_EQ(q.size(), std::size_t(next_in - next_out));
        int expect = next_out;
        q.forEach([&](int x) { EXPECT_EQ(x, expect++); });
        ASSERT_EQ(expect, next_in);
    }
    while (q.pop(v))
        EXPECT_EQ(v, next_out++);
    EXPECT_EQ(next_out, next_in);
    EXPECT_EQ(q.dropped(), 0u);
}

TEST(SpscQueue, CapacityReportsTheBoundBeforeAnyGrowth)
{
    SpscQueue<int> q(65536);
    EXPECT_EQ(q.capacity(), 65536u);
    q.push(1);
    EXPECT_EQ(q.capacity(), 65536u);
}

TEST(SpscQueue, PushAtTheBoundIsDropped)
{
    // A bound that is not a power of two: the last growth stops at it.
    SpscQueue<int> q(37);
    for (int i = 0; i < 37; ++i)
        ASSERT_TRUE(q.push(i));
    EXPECT_FALSE(q.push(99));
    EXPECT_FALSE(q.push(100));
    EXPECT_EQ(q.dropped(), 2u);
    EXPECT_EQ(q.pushed(), 37u);
    EXPECT_EQ(q.size(), 37u);
    int v;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(q.push(37)); // room again below the bound
    for (int i = 1; i <= 37; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true, any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next(), vb = b.next(), vc = c.next();
        all_equal = all_equal && (va == vb);
        any_diff_seed = any_diff_seed || (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

// ---------------------------------------------------------------- time

TEST(Types, TickConversions)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(kMsec), 1.0);
    EXPECT_EQ(kUsec, 1000u);
    EXPECT_EQ(kSec, 1000000000u);
}

} // namespace
