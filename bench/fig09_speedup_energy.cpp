/**
 * @file
 * Regenerates paper Figure 9: (a) speedup of LMS, LMS-mod, DeepUM,
 * and Ideal over naive UM; (b) elapsed seconds per 100 training
 * iterations; (c) energy consumption ratio over UM — for every
 * model/batch cell of the paper's grid, from one set of runs.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench/common.hh"

using namespace deepum;
using namespace deepum::bench;

namespace {

struct Row {
    std::string label;
    harness::RunResult um, dum, ideal;
    baselines::SwapResult lms, lmsmod;
};

/** "1.2345" or "null" for a non-finite/absent value. */
std::string
jnum(double v, bool ok = true)
{
    if (!ok || !std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    auto cfg = defaultConfig();
    auto scfg = swapConfig(cfg);

    // Flags: the shared --jobs plus --json <path> (machine-readable
    // per-cell output mirroring sim_throughput's --out).
    unsigned jobs = 1;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs" && i + 1 < argc) {
            jobs = parseJobs(argv[0], argv[++i]);
        } else if (a.rfind("--jobs=", 0) == 0) {
            jobs = parseJobs(argv[0], a.substr(7));
        } else if (a == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--json file.json]\n",
                         argv[0]);
            return 2;
        }
    }

    harness::ParallelRunner pool(jobs);
    std::vector<Row> rows =
        mapCells<Row>(pool, fig9Grid(), [&](const Cell &c) {
            torch::Tape tape = models::buildModel(c.model, c.batch);
            Row r;
            r.label = cellLabel(c);
            r.um = harness::runExperiment(
                tape, harness::SystemKind::Um, cfg);
            r.dum = harness::runExperiment(
                tape, harness::SystemKind::DeepUm, cfg);
            r.ideal = harness::runExperiment(
                tape, harness::SystemKind::Ideal, cfg);
            r.lms = baselines::runBaseline(
                baselines::BaselineKind::Lms, tape, scfg);
            r.lmsmod = baselines::runBaseline(
                baselines::BaselineKind::LmsMod, tape, scfg);
            return r;
        });

    auto speedup = [](const harness::RunResult &um, double t) {
        return t > 0 ? um.secPer100Iters / t : 0.0;
    };

    banner("Figure 9(a): speedup of training throughput over naive UM");
    {
        harness::TextTable t(
            {"model/batch", "LMS", "LMS-mod", "DeepUM", "Ideal"});
        std::vector<double> g_lms, g_mod, g_dum, g_ideal;
        for (const Row &r : rows) {
            auto cell = [&](bool ok, double s) {
                return ok ? harness::fmtSpeedup(s) : std::string("OOM");
            };
            double s_lms = r.lms.ok
                               ? speedup(r.um, r.lms.secPer100Iters)
                               : 0;
            double s_mod =
                r.lmsmod.ok ? speedup(r.um, r.lmsmod.secPer100Iters)
                            : 0;
            double s_dum = speedup(r.um, r.dum.secPer100Iters);
            double s_idl = speedup(r.um, r.ideal.secPer100Iters);
            if (r.lms.ok)
                g_lms.push_back(s_lms);
            if (r.lmsmod.ok)
                g_mod.push_back(s_mod);
            g_dum.push_back(s_dum);
            g_ideal.push_back(s_idl);
            t.row({r.label, cell(r.lms.ok, s_lms),
                   cell(r.lmsmod.ok, s_mod),
                   harness::fmtSpeedup(s_dum),
                   harness::fmtSpeedup(s_idl)});
        }
        t.row({"gmean(where run)", harness::fmtSpeedup(
                                       harness::geomean(g_lms)),
               harness::fmtSpeedup(harness::geomean(g_mod)),
               harness::fmtSpeedup(harness::geomean(g_dum)),
               harness::fmtSpeedup(harness::geomean(g_ideal))});
        t.print(std::cout);
    }

    banner("Figure 9(b): elapsed seconds per 100 training iterations");
    {
        harness::TextTable t({"model/batch", "UM", "LMS", "LMS-mod",
                              "DeepUM", "Ideal"});
        for (const Row &r : rows) {
            auto swap_cell = [](const baselines::SwapResult &s) {
                return s.ok ? harness::fmtDouble(s.secPer100Iters)
                            : std::string("-");
            };
            t.row({r.label, harness::fmtDouble(r.um.secPer100Iters),
                   swap_cell(r.lms), swap_cell(r.lmsmod),
                   harness::fmtDouble(r.dum.secPer100Iters),
                   harness::fmtDouble(r.ideal.secPer100Iters)});
        }
        t.print(std::cout);
    }

    banner("Figure 9(c): total energy consumption ratio over UM "
           "(lower is better)");
    {
        harness::TextTable t(
            {"model/batch", "LMS", "LMS-mod", "DeepUM"});
        std::vector<double> g_lms, g_mod, g_dum;
        for (const Row &r : rows) {
            auto ratio = [&](double e) {
                return e / r.um.energyJPerIter;
            };
            std::string lms =
                r.lms.ok
                    ? harness::fmtDouble(ratio(r.lms.energyJPerIter))
                    : "-";
            std::string mod = r.lmsmod.ok
                                  ? harness::fmtDouble(ratio(
                                        r.lmsmod.energyJPerIter))
                                  : "-";
            if (r.lms.ok)
                g_lms.push_back(ratio(r.lms.energyJPerIter));
            if (r.lmsmod.ok)
                g_mod.push_back(ratio(r.lmsmod.energyJPerIter));
            g_dum.push_back(ratio(r.dum.energyJPerIter));
            t.row({r.label, lms, mod,
                   harness::fmtDouble(ratio(r.dum.energyJPerIter))});
        }
        t.row({"gmean(where run)",
               harness::fmtDouble(harness::geomean(g_lms)),
               harness::fmtDouble(harness::geomean(g_mod)),
               harness::fmtDouble(harness::geomean(g_dum))});
        t.print(std::cout);
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr,
                         "fig09: cannot open --json file '%s'\n",
                         json_path.c_str());
            return 1;
        }
        std::vector<double> g_lms, g_mod, g_dum, g_ideal;
        std::vector<double> ge_lms, ge_mod, ge_dum;
        os << "{\n  \"cells\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            double s_lms = r.lms.ok
                               ? speedup(r.um, r.lms.secPer100Iters)
                               : 0;
            double s_mod =
                r.lmsmod.ok ? speedup(r.um, r.lmsmod.secPer100Iters)
                            : 0;
            double s_dum = speedup(r.um, r.dum.secPer100Iters);
            double s_idl = speedup(r.um, r.ideal.secPer100Iters);
            double e_lms = r.lms.energyJPerIter / r.um.energyJPerIter;
            double e_mod =
                r.lmsmod.energyJPerIter / r.um.energyJPerIter;
            double e_dum = r.dum.energyJPerIter / r.um.energyJPerIter;
            if (r.lms.ok) {
                g_lms.push_back(s_lms);
                ge_lms.push_back(e_lms);
            }
            if (r.lmsmod.ok) {
                g_mod.push_back(s_mod);
                ge_mod.push_back(e_mod);
            }
            g_dum.push_back(s_dum);
            g_ideal.push_back(s_idl);
            ge_dum.push_back(e_dum);
            os << "    {\"label\": \"" << r.label << "\",\n"
               << "     \"secPer100Iters\": {\"um\": "
               << jnum(r.um.secPer100Iters) << ", \"lms\": "
               << jnum(r.lms.secPer100Iters, r.lms.ok)
               << ", \"lmsMod\": "
               << jnum(r.lmsmod.secPer100Iters, r.lmsmod.ok)
               << ", \"deepum\": " << jnum(r.dum.secPer100Iters)
               << ", \"ideal\": " << jnum(r.ideal.secPer100Iters)
               << "},\n"
               << "     \"speedupOverUm\": {\"lms\": "
               << jnum(s_lms, r.lms.ok) << ", \"lmsMod\": "
               << jnum(s_mod, r.lmsmod.ok) << ", \"deepum\": "
               << jnum(s_dum) << ", \"ideal\": " << jnum(s_idl)
               << "},\n"
               << "     \"energyRatioOverUm\": {\"lms\": "
               << jnum(e_lms, r.lms.ok) << ", \"lmsMod\": "
               << jnum(e_mod, r.lmsmod.ok) << ", \"deepum\": "
               << jnum(e_dum) << "}}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  ],\n"
           << "  \"gmeanSpeedup\": {\"lms\": "
           << jnum(harness::geomean(g_lms), !g_lms.empty())
           << ", \"lmsMod\": "
           << jnum(harness::geomean(g_mod), !g_mod.empty())
           << ", \"deepum\": " << jnum(harness::geomean(g_dum))
           << ", \"ideal\": " << jnum(harness::geomean(g_ideal))
           << "},\n"
           << "  \"gmeanEnergyRatio\": {\"lms\": "
           << jnum(harness::geomean(ge_lms), !ge_lms.empty())
           << ", \"lmsMod\": "
           << jnum(harness::geomean(ge_mod), !ge_mod.empty())
           << ", \"deepum\": " << jnum(harness::geomean(ge_dum))
           << "}\n"
           << "}\n";
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
