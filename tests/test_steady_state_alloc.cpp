/**
 * @file
 * Steady-state tape replay allocates nothing: a 2N-iteration
 * runExperiment makes exactly as many global operator new calls as
 * an N-iteration one. Every iteration after the first replays the
 * same allocator operations and launches, so a heap allocation that
 * recurs per iteration (a pool node, a rebuilt access list, a
 * growing snapshot vector) shows up as a difference.
 *
 * The counting replacement of the global operator new is why this
 * test is a binary of its own: it touches no other test.
 * DEEPUM_VALIDATE builds skip the replay cases, because their
 * invariant audits allocate after every fault batch and kernel.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "harness/experiment.hh"
#include "models/registry.hh"
#include "sim/validate.hh"

namespace {
std::atomic<std::uint64_t> gNewCalls{0};

void *
countedAlloc(std::size_t n) noexcept
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n != 0 ? n : 1);
}
} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace deepum;
using namespace deepum::harness;

namespace {

/** operator new calls made by one @p iterations-long run. */
std::uint64_t
newCallsOfRun(const torch::Tape &tape, SystemKind kind,
              std::uint32_t iterations)
{
    ExperimentConfig cfg;
    cfg.iterations = iterations;
    cfg.warmup = 1;
    std::uint64_t before = gNewCalls.load();
    bool ok = runExperiment(tape, kind, cfg).ok;
    std::uint64_t calls = gNewCalls.load() - before;
    EXPECT_TRUE(ok);
    return calls;
}

struct Cell {
    const char *model;
    std::uint64_t batch;
    SystemKind kind;
};

/** Iterations of the shorter run; the longer one runs twice as many. */
constexpr std::uint32_t kShortRun = 6;

void
expectSteadyStateAllocatesNothing(const Cell &c)
{
    SCOPED_TRACE(testing::Message() << c.model << "/" << c.batch << " "
                                    << systemName(c.kind));
    torch::Tape tape = models::buildModel(c.model, c.batch);
    std::uint64_t n = newCallsOfRun(tape, c.kind, kShortRun);
    std::uint64_t n2 = newCallsOfRun(tape, c.kind, 2 * kShortRun);
    EXPECT_GT(n, 0u) << "set-up allocates; the counter must see it";
    EXPECT_EQ(n2, n) << "extra allocations per iteration: "
                     << static_cast<double>(n2 - n) / kShortRun;
}

TEST(OperatorNewCounter, IsInstalled)
{
    // A direct call: a new-expression may be elided.
    std::uint64_t before = gNewCalls.load();
    ::operator delete(::operator new(16));
    EXPECT_EQ(gNewCalls.load() - before, 1u);
}

class SteadyStateAlloc : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (sim::kValidateBuild)
            GTEST_SKIP() << "the invariant audits allocate";
    }
};

TEST_F(SteadyStateAlloc, UmIdealAndOcDnnReplayAllocationFree)
{
    // dlrm/229376 covers the gather path, which redraws its blocks at
    // every launch.
    const std::pair<const char *, std::uint64_t> cells[] = {
        {"bert-base", 30}, {"dlrm", 229376}};
    for (auto [model, batch] : cells)
        for (SystemKind kind :
             {SystemKind::Um, SystemKind::Ideal, SystemKind::OcDnn})
            expectSteadyStateAllocatesNothing({model, batch, kind});
}

TEST_F(SteadyStateAlloc, DeepUmReplayAllocationFreeOnRegularCells)
{
    expectSteadyStateAllocatesNothing(
        {"mobilenet", 256, SystemKind::DeepUm});
    expectSteadyStateAllocatesNothing(
        {"resnet152", 1792, SystemKind::DeepUm});
}

} // namespace
