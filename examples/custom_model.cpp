/**
 * @file
 * Build a custom DNN with the NetBuilder API and explore how
 * DeepUM's prefetch degree N affects it — what a downstream user
 * would do to tune DeepUM for a new workload.
 *
 * The model is a small U-Net-style encoder/decoder with skip
 * connections (long activation reuse distances, the interesting case
 * for prefetching).
 *
 * Usage: custom_model [batch]
 *   batch defaults to 96; one outside [1, 2^64-1] is rejected with
 *   exit status 2.
 */

#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "models/builder.hh"
#include "support/parse_num.hh"

using namespace deepum;

namespace {

/** A 4-level U-Net-ish encoder/decoder. */
torch::Tape
buildUnet(std::uint64_t batch)
{
    models::NetBuilder b("custom-unet", batch, 0.12);

    constexpr int kLevels = 4;
    const std::uint64_t act0 = 640 * 1024; // per-sample, level 0

    struct Level {
        models::Weight enc, dec;
        torch::TensorId enc_act, enc_gact;
    };
    std::vector<Level> lv(kLevels);
    for (int i = 0; i < kLevels; ++i) {
        lv[i].enc = b.weight("enc" + std::to_string(i),
                             (1u << i) * 512 * 1024);
        lv[i].dec = b.weight("dec" + std::to_string(i),
                             (1u << i) * 512 * 1024);
        std::uint64_t act = act0 * batch >> i; // halves per level
        lv[i].enc_act = b.transient("enc_act" + std::to_string(i),
                                    std::max<std::uint64_t>(act, 65536));
        lv[i].enc_gact = b.transient(
            "enc_gact" + std::to_string(i),
            std::max<std::uint64_t>(act, 65536));
    }
    torch::TensorId input =
        b.transient("input", act0 * batch, torch::TensorKind::Input);

    // Encoder path.
    b.alloc(input);
    torch::TensorId prev = input;
    for (int i = 0; i < kLevels; ++i) {
        b.alloc(lv[i].enc_act);
        b.kernel("enc_conv", {prev, lv[i].enc.param}, {lv[i].enc_act},
                 2.0);
        prev = lv[i].enc_act;
    }
    // Decoder path re-reads the matching encoder activation (the
    // skip connection): long reuse distance across the bottleneck.
    for (int i = kLevels; i-- > 0;) {
        b.alloc(lv[i].enc_gact);
        b.kernel("dec_conv", {prev, lv[i].enc_act, lv[i].dec.param},
                 {lv[i].enc_gact}, 2.0);
        if (prev != input && prev != lv[i].enc_act)
            b.release(prev);
        prev = lv[i].enc_gact;
    }
    // Cleanup + optimizer. The decoder loop already released
    // enc_gact[1..3]; enc_gact[0] is still live as `prev`.
    for (int i = 0; i < kLevels; ++i)
        b.release(lv[i].enc_act);
    b.release(prev);
    b.release(input);
    b.optAll();
    return b.take();
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<std::uint64_t> parsed = 96;
    if (argc > 1)
        parsed = support::parseNum("custom_model", "batch", argv[1], 1,
                                   std::numeric_limits<std::uint64_t>::max());
    if (!parsed)
        return 2;
    const std::uint64_t batch = *parsed;
    torch::Tape tape = buildUnet(batch);

    harness::ExperimentConfig base;
    std::printf("custom-unet, batch %llu: footprint %s on %s "
                "(oversubscription %.2fx)\n\n",
                static_cast<unsigned long long>(batch),
                harness::fmtMiB(tape.footprintBytes()).c_str(),
                harness::fmtMiB(base.gpuMemBytes).c_str(),
                static_cast<double>(tape.footprintBytes()) /
                    static_cast<double>(base.gpuMemBytes));

    auto um = harness::runExperiment(tape, harness::SystemKind::Um,
                                     base);
    harness::TextTable t({"system", "s/100iter", "speedup vs UM",
                          "faults/iter", "prefetch useful",
                          "prefetch wasted"});
    t.row({"UM", harness::fmtDouble(um.secPer100Iters), "1.00x",
           harness::fmtDouble(um.pageFaultsPerIter, 0), "-", "-"});

    for (std::uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
        harness::ExperimentConfig cfg = base;
        cfg.deepum.lookaheadN = n;
        auto r = harness::runExperiment(
            tape, harness::SystemKind::DeepUm, cfg);
        t.row({"DeepUM N=" + std::to_string(n),
               harness::fmtDouble(r.secPer100Iters),
               harness::fmtSpeedup(um.secPer100Iters /
                                   r.secPer100Iters),
               harness::fmtDouble(r.pageFaultsPerIter, 0),
               std::to_string(r.stats.at("uvm.prefetchUseful")),
               std::to_string(r.stats.at("uvm.prefetchWasted"))});
    }
    auto ideal = harness::runExperiment(
        tape, harness::SystemKind::Ideal, base);
    t.row({"Ideal", harness::fmtDouble(ideal.secPer100Iters),
           harness::fmtSpeedup(um.secPer100Iters /
                               ideal.secPer100Iters),
           "0", "-", "-"});
    t.print(std::cout);
    return 0;
}
