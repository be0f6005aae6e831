/**
 * @file
 * Regenerates paper Table 7: maximum possible batch sizes of the
 * TensorFlow-based approaches and DeepUM on the 16 GB-class GPU,
 * with the host backing store capped (the paper caps DeepUM's CPU
 * memory at 128 GB; scaled here to 1 GiB).
 */

#include <iostream>

#include "bench/common.hh"

using namespace deepum;
using namespace deepum::bench;

int
main(int argc, char **argv)
{
    auto cfg = smallGpuConfig();
    cfg.hostMemBytes = 1 * sim::kGiB;
    auto scfg = swapConfig(cfg);

    struct Probe {
        const char *model;
        std::uint64_t lo, hi;
    };
    const Probe kProbes[] = {
        {"resnet200-cifar", 128, 256 * 1024},
        {"bert-large-cola", 2, 8 * 1024},
        {"dcgan", 128, 256 * 1024},
        {"mobilenet", 128, 256 * 1024},
    };

    const baselines::BaselineKind kTf[] = {
        baselines::BaselineKind::Vdnn,
        baselines::BaselineKind::AutoTm,
        baselines::BaselineKind::SwapAdvisor,
        baselines::BaselineKind::Capuchin,
        baselines::BaselineKind::Sentinel,
    };

    std::vector<std::string> headers{"model"};
    for (auto k : kTf)
        headers.push_back(baselines::baselineName(k));
    headers.push_back("DeepUM");
    harness::TextTable t(headers);

    harness::ParallelRunner pool(jobsFromArgs(argc, argv));
    auto rows = pool.map<std::vector<std::string>>(
        std::size(kProbes), [&](std::size_t i) {
            const auto &p = kProbes[i];
            std::vector<std::string> row{p.model};
            for (auto k : kTf) {
                std::uint64_t mb = baselines::maxBatchBaseline(
                    k, p.model, scfg, p.lo, p.hi);
                row.push_back(mb ? harness::fmtBatch(mb)
                                 : std::string("not work"));
            }
            std::uint64_t dum = harness::maxBatch(
                p.model, harness::SystemKind::DeepUm, cfg, p.lo,
                p.hi);
            row.push_back(harness::fmtBatch(dum));
            return row;
        });
    for (auto &row : rows)
        t.row(row);

    banner("Table 7: maximum batch sizes, 16 GB-class GPU, host "
           "capped at 1 GiB (128 GB at scale)");
    t.print(std::cout);
    return 0;
}
