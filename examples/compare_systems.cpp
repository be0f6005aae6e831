/**
 * @file
 * Compare every memory system on one workload — a single cell of the
 * paper's Figure 9: naive UM, IBM LMS, LMS-mod, DeepUM, and the
 * no-oversubscription Ideal.
 *
 * Usage: compare_systems [model] [batch]
 *   A batch outside [1, 2^64-1] is rejected with exit status 2.
 */

#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "baselines/runner.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "models/registry.hh"
#include "support/parse_num.hh"

using namespace deepum;

int
main(int argc, char **argv)
{
    std::string model = argc > 1 ? argv[1] : "gpt2-xl";
    std::optional<std::uint64_t> parsed = 5;
    if (argc > 2)
        parsed = support::parseNum("compare_systems", "batch", argv[2], 1,
                                   std::numeric_limits<std::uint64_t>::max());
    if (!parsed)
        return 2;
    const std::uint64_t batch = *parsed;

    torch::Tape tape = models::buildModel(model, batch);
    harness::ExperimentConfig cfg;

    baselines::SwapConfig scfg;
    scfg.capacityBytes = cfg.gpuMemBytes;
    scfg.hostBytes = cfg.hostMemBytes;
    scfg.timing = cfg.timing;
    scfg.energy = cfg.energy;

    std::printf("%s, batch %llu: footprint %s on %s GPU memory\n\n",
                model.c_str(), static_cast<unsigned long long>(batch),
                harness::fmtMiB(tape.footprintBytes()).c_str(),
                harness::fmtMiB(cfg.gpuMemBytes).c_str());

    auto um = harness::runExperiment(tape, harness::SystemKind::Um, cfg);
    auto dum =
        harness::runExperiment(tape, harness::SystemKind::DeepUm, cfg);
    auto ideal =
        harness::runExperiment(tape, harness::SystemKind::Ideal, cfg);
    auto lms =
        baselines::runBaseline(baselines::BaselineKind::Lms, tape, scfg);
    auto lmsmod = baselines::runBaseline(baselines::BaselineKind::LmsMod,
                                         tape, scfg);

    harness::TextTable t({"system", "s/100iter", "speedup vs UM",
                          "energy J/iter"});
    auto um_time = um.secPer100Iters;
    t.row({"UM", harness::fmtDouble(um.secPer100Iters),
           harness::fmtSpeedup(1.0),
           harness::fmtDouble(um.energyJPerIter, 1)});
    auto add_swap = [&](const char *name,
                        const baselines::SwapResult &r) {
        if (!r.ok) {
            t.row({name, std::string("OOM (") + r.reason + ")", "-",
                   "-"});
            return;
        }
        t.row({name, harness::fmtDouble(r.secPer100Iters),
               harness::fmtSpeedup(um_time / r.secPer100Iters),
               harness::fmtDouble(r.energyJPerIter, 1)});
    };
    add_swap("LMS", lms);
    add_swap("LMS-mod", lmsmod);
    t.row({"DeepUM", harness::fmtDouble(dum.secPer100Iters),
           harness::fmtSpeedup(um_time / dum.secPer100Iters),
           harness::fmtDouble(dum.energyJPerIter, 1)});
    t.row({"Ideal", harness::fmtDouble(ideal.secPer100Iters),
           harness::fmtSpeedup(um_time / ideal.secPer100Iters),
           harness::fmtDouble(ideal.energyJPerIter, 1)});
    t.print(std::cout);
    return 0;
}
