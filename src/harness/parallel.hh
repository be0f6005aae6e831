/**
 * @file
 * Parallel experiment runner.
 *
 * Every (model, batch, system) cell of the paper's evaluation is an
 * independent simulation: runExperiment() builds a private
 * EventQueue, StatSet and RNG per call and shares nothing, so cells
 * can run concurrently with zero coordination. ParallelRunner fans
 * the cells of one bench or `simctl --batches` sweep out over a
 * fork-join: each forEach() starts its threads, runs every index and
 * joins them before it returns, so nothing runs between calls.
 * Results land in caller-indexed slots, so the output order (and,
 * because each cell is deterministic in isolation, every value in
 * it) is identical whether the grid runs on one thread or many.
 *
 * Threading model (see DESIGN.md "Share-nothing threading"):
 * simulations are share-nothing — one EventQueue per run, never
 * crossed between threads. The runner only parallelizes *across*
 * runs.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace deepum::harness {

/**
 * Most threads a ParallelRunner takes. forEach() starts up to this
 * many at once, so a wrapped or mistyped count is refused rather
 * than obeyed; the CLIs parse `--jobs` against the same bound.
 */
inline constexpr unsigned kMaxJobs = 1024;

/** One job per hardware thread, within [1, kMaxJobs] (`--jobs 0`). */
unsigned hardwareJobs();

/**
 * Runs index-sharded loops on up to jobs() threads, the calling
 * thread included. ParallelRunner(1), a one-index loop, and a
 * forEach() called from inside a body all run on the calling thread
 * alone, with no thread started.
 */
class ParallelRunner
{
  public:
    /**
     * @param jobs thread count; 0 means hardwareJobs(). Panics above
     * kMaxJobs.
     */
    explicit ParallelRunner(unsigned jobs = 0);

    /** Effective thread count (calling thread included). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run @p body(i) for every i in [0, n); returns when all calls
     * finished and every thread it started has joined. Indices are
     * claimed dynamically, so completion order is arbitrary — write
     * results into slot i to keep output deterministic. Once every
     * index has run, the exception of the lowest index that threw is
     * rethrown here.
     *
     * A nested call from inside a body runs serially on that body's
     * thread.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &body);

    /**
     * Map convenience: returns {fn(0), ..., fn(n-1)} in index order
     * regardless of execution order. T must be default-constructible
     * and movable.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn fn)
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    unsigned jobs_;
};

} // namespace deepum::harness
