/**
 * @file
 * Tests for harness::ParallelRunner and the share-nothing
 * parallel-experiment contract: a grid evaluated on N threads must
 * produce results byte-identical to the same grid on one thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"

using namespace deepum;
using harness::ParallelRunner;

namespace {

TEST(ParallelRunner, MapReturnsResultsInIndexOrder)
{
    ParallelRunner pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    auto v = pool.map<int>(1000, [](std::size_t i) {
        return static_cast<int>(i * 3);
    });
    ASSERT_EQ(v.size(), 1000u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i], static_cast<int>(i * 3));
}

TEST(ParallelRunner, SingleJobRunsInline)
{
    ParallelRunner pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<int> order;
    pool.forEach(5, [&](std::size_t i) {
        // Serial path: bodies run on the caller in index order, so
        // unsynchronized access to `order` is fine.
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, RefusesMoreThanMaxJobsUpFront)
{
    // forEach() starts up to jobs() threads at once, so the
    // constructor refuses a count above the bound. 0 means one job per
    // hardware thread.
    EXPECT_DEATH(ParallelRunner pool(harness::kMaxJobs + 1),
                 "1025 jobs requested, at most 1024");
    ParallelRunner pool(0);
    EXPECT_EQ(pool.jobs(), harness::hardwareJobs());
}

TEST(ParallelRunner, EveryIndexRunsExactlyOnce)
{
    ParallelRunner pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.forEach(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, NestedCallsRunInlineWithoutDeadlock)
{
    ParallelRunner pool(4);
    auto totals = pool.map<long>(32, [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        long s = 0;
        // A nested call from inside a body starts no thread; it runs
        // serially on the body's own thread.
        pool.forEach(10, [&](std::size_t j) {
            EXPECT_EQ(std::this_thread::get_id(), outer);
            s += static_cast<long>(i * 10 + j);
        });
        return s;
    });
    long sum = std::accumulate(totals.begin(), totals.end(), 0L);
    EXPECT_EQ(sum, (320L * 319) / 2);
}

TEST(ParallelRunner, FirstExceptionPropagates)
{
    for (unsigned jobs : {1u, 4u}) {
        ParallelRunner pool(jobs);
        std::atomic<int> ran{0};
        try {
            pool.forEach(64, [&](std::size_t i) {
                ++ran;
                if (i == 13 || i == 40)
                    throw std::runtime_error(std::to_string(i));
            });
            ADD_FAILURE() << "no exception at " << jobs << " jobs";
        } catch (const std::runtime_error &e) {
            // Every index ran, and the lowest index's error won.
            EXPECT_EQ(ran.load(), 64) << jobs << " jobs";
            EXPECT_STREQ(e.what(), "13") << jobs << " jobs";
        }
        // The runner works again after a failed call.
        auto v = pool.map<int>(8, [](std::size_t i) {
            return static_cast<int>(i);
        });
        EXPECT_EQ(v.back(), 7);
    }
}

TEST(ParallelRunner, PoolIsReusableAcrossJobs)
{
    ParallelRunner pool(2);
    for (int round = 0; round < 20; ++round) {
        auto v = pool.map<int>(round + 1, [&](std::size_t i) {
            return round + static_cast<int>(i);
        });
        EXPECT_EQ(v.front(), round);
        EXPECT_EQ(v.back(), 2 * round);
    }
}

/** Field-by-field equality of two reduced run results. */
void
expectSameResult(const harness::RunResult &a,
                 const harness::RunResult &b, const char *label)
{
    EXPECT_EQ(a.ok, b.ok) << label;
    EXPECT_EQ(a.measuredIters, b.measuredIters) << label;
    EXPECT_EQ(a.ticksPerIter, b.ticksPerIter) << label;
    EXPECT_EQ(a.secPer100Iters, b.secPer100Iters) << label;
    EXPECT_EQ(a.pageFaultsPerIter, b.pageFaultsPerIter) << label;
    EXPECT_EQ(a.energyJPerIter, b.energyJPerIter) << label;
    EXPECT_EQ(a.bytesHtoDPerIter, b.bytesHtoDPerIter) << label;
    EXPECT_EQ(a.bytesDtoHPerIter, b.bytesDtoHPerIter) << label;
    EXPECT_EQ(a.computeTicksPerIter, b.computeTicksPerIter) << label;
    EXPECT_EQ(a.tableBytes, b.tableBytes) << label;

    // Full counter dump: every stat, bit for bit.
    EXPECT_EQ(a.stats, b.stats) << label;

    ASSERT_EQ(a.dists.size(), b.dists.size()) << label;
    for (const auto &[name, da] : a.dists) {
        auto it = b.dists.find(name);
        ASSERT_NE(it, b.dists.end()) << label << ": " << name;
        const harness::DistSummary &db = it->second;
        EXPECT_EQ(da.count, db.count) << label << ": " << name;
        EXPECT_EQ(da.min, db.min) << label << ": " << name;
        EXPECT_EQ(da.max, db.max) << label << ": " << name;
        EXPECT_EQ(da.mean, db.mean) << label << ": " << name;
        EXPECT_EQ(da.stddev, db.stddev) << label << ": " << name;
        EXPECT_EQ(da.p50, db.p50) << label << ": " << name;
        EXPECT_EQ(da.p99, db.p99) << label << ": " << name;
    }
}

TEST(ParallelDeterminism, SweepGridIdenticalOnOneAndManyThreads)
{
    // The share-nothing contract (DESIGN.md "Threading model"): each
    // cell owns a private EventQueue/StatSet/RNG, so the thread
    // count must not change a single bit of any result.
    harness::ExperimentConfig cfg = bench::defaultConfig();
    cfg.iterations = 3;
    cfg.warmup = 1;

    const auto grid = bench::sweepGrid();
    auto runGrid = [&](unsigned jobs) {
        ParallelRunner pool(jobs);
        return bench::mapCells<harness::RunResult>(
            pool, grid, [&](const bench::Cell &c) {
                torch::Tape tape =
                    models::buildModel(c.model, c.batch);
                return harness::runExperiment(
                    tape, harness::SystemKind::DeepUm, cfg);
            });
    };

    auto serial = runGrid(1);
    auto parallel = runGrid(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i],
                         bench::cellLabel(grid[i]).c_str());
}

} // namespace
