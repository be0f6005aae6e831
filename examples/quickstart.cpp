/**
 * @file
 * Quickstart: train one model under naive UM, DeepUM, and an ideal
 * (no-oversubscription) GPU, and print the headline comparison.
 *
 * Usage: quickstart [model] [batch] [-v] [lookahead]
 *   model defaults to bert-base, batch to 30 (about 6% GPU memory
 *   oversubscription at the simulator's 256 MiB scale). A batch
 *   outside [1, 2^64-1] or a lookahead outside [1, 2^32-1] is
 *   rejected with exit status 2.
 */

#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "models/registry.hh"
#include "support/parse_num.hh"

using namespace deepum;

int
main(int argc, char **argv)
{
    std::string model = argc > 1 ? argv[1] : "bert-base";
    std::optional<std::uint64_t> parsed = 30;
    if (argc > 2)
        parsed = support::parseNum("quickstart", "batch", argv[2], 1,
                                   std::numeric_limits<std::uint64_t>::max());
    if (!parsed)
        return 2;
    const std::uint64_t batch = *parsed;
    std::optional<std::uint64_t> lookahead;
    if (argc > 4) {
        lookahead = support::parseNum(
            "quickstart", "lookahead", argv[4], 1,
            std::numeric_limits<std::uint32_t>::max());
        if (!lookahead)
            return 2;
    }

    torch::Tape tape = models::buildModel(model, batch);
    std::printf("model %s, batch %llu\n", model.c_str(),
                static_cast<unsigned long long>(batch));
    std::printf("  footprint      : %s\n",
                harness::fmtMiB(tape.footprintBytes()).c_str());
    std::printf("  persistent     : %s\n",
                harness::fmtMiB(tape.persistentBytes()).c_str());
    std::printf("  kernels/iter   : %zu\n",
                tape.launchesPerIteration());

    harness::ExperimentConfig cfg;
    if (lookahead)
        cfg.deepum.lookaheadN = static_cast<std::uint32_t>(*lookahead);
    std::printf("  GPU memory     : %s (oversubscription %.2fx)\n\n",
                harness::fmtMiB(cfg.gpuMemBytes).c_str(),
                static_cast<double>(tape.footprintBytes()) /
                    static_cast<double>(cfg.gpuMemBytes));

    auto ideal =
        harness::runExperiment(tape, harness::SystemKind::Ideal, cfg);
    auto um = harness::runExperiment(tape, harness::SystemKind::Um, cfg);
    auto dum =
        harness::runExperiment(tape, harness::SystemKind::DeepUm, cfg);

    harness::TextTable t({"system", "s/100iter", "speedup vs UM",
                          "faults/iter", "HtoD MiB/iter",
                          "DtoH MiB/iter", "energy J/iter"});
    auto add = [&](const char *name, const harness::RunResult &r) {
        if (!r.ok) {
            t.row({name, "OOM", "-", "-", "-", "-", "-"});
            return;
        }
        t.row({name, harness::fmtDouble(r.secPer100Iters),
               harness::fmtSpeedup(um.secPer100Iters /
                                   r.secPer100Iters),
               harness::fmtDouble(r.pageFaultsPerIter, 0),
               harness::fmtDouble(static_cast<double>(
                                      r.bytesHtoDPerIter) /
                                      (1024.0 * 1024.0),
                                  1),
               harness::fmtDouble(static_cast<double>(
                                      r.bytesDtoHPerIter) /
                                      (1024.0 * 1024.0),
                                  1),
               harness::fmtDouble(r.energyJPerIter, 1)});
    };
    add("UM", um);
    add("DeepUM", dum);
    add("Ideal", ideal);
    t.print(std::cout);

    if (argc > 3 && std::string(argv[3]) == "-v") {
        std::printf("\nDeepUM driver counters:\n");
        for (const auto &[name, v] : dum.stats) {
            if (name.rfind("uvm.", 0) == 0 ||
                name.rfind("prefetcher.", 0) == 0 ||
                name.rfind("preevictor.", 0) == 0 ||
                name.rfind("gpu.", 0) == 0) {
                std::printf("  %-40s %llu\n", name.c_str(),
                            static_cast<unsigned long long>(v));
            }
        }
    }
    return 0;
}
