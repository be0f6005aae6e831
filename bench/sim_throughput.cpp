/**
 * @file
 * Simulator wall-clock benchmark: one reduced-iteration sweepGrid()
 * pass of DeepUM runs, timed serially and on a thread pool, with the
 * parallel speedup (bounded by the machine's core count).
 *
 * Usage:
 *   sim_throughput [--jobs N] [--out file.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench/common.hh"

using namespace deepum;
using namespace deepum::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall-clock one sweepGrid pass (reduced iterations) on @p jobs. */
double
gridSeconds(unsigned jobs)
{
    harness::ExperimentConfig cfg = defaultConfig();
    cfg.iterations = 6;
    cfg.warmup = 2;
    harness::ParallelRunner pool(jobs);
    auto t0 = std::chrono::steady_clock::now();
    auto results = mapCells<harness::RunResult>(
        pool, sweepGrid(), [&](const Cell &c) {
            torch::Tape tape = models::buildModel(c.model, c.batch);
            return harness::runExperiment(
                tape, harness::SystemKind::DeepUm, cfg);
        });
    double sec = secondsSince(t0);
    for (const auto &r : results)
        if (!r.ok)
            std::fprintf(stderr, "warning: grid cell reported OOM\n");
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = harness::hardwareJobs();
    std::string out;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs" && i + 1 < argc) {
            jobs = parseJobs("sim_throughput", argv[++i]);
        } else if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: sim_throughput [--jobs N] "
                         "[--out file.json]\n");
            return 2;
        }
    }

    banner("sweepGrid wall-clock (reduced iterations)");
    double grid_serial = gridSeconds(1);
    double grid_parallel = gridSeconds(jobs);
    double speedup =
        grid_parallel > 0 ? grid_serial / grid_parallel : 0.0;
    std::printf("serial (1 job)       %.2f s\n", grid_serial);
    std::printf("parallel (%u jobs)   %.2f s\n", jobs, grid_parallel);
    std::printf("speedup              %.2fx\n", speedup);

    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", out.c_str());
            return 1;
        }
        // Wall-clock figures are meaningless across machines without
        // the core count; record it first.
        os << "{\n"
           << "  \"host_cores\": "
           << std::max(1u, std::thread::hardware_concurrency())
           << ",\n"
           << "  \"grid\": {\"jobs\": " << jobs
           << ", \"serial_sec\": " << grid_serial
           << ", \"parallel_sec\": " << grid_parallel
           << ", \"speedup\": " << speedup << "}\n}\n";
    }
    return 0;
}
