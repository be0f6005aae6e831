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
    /** Speedups over UM; a baseline that failed reads 0. */
    double sLms = 0, sMod = 0, sDum = 0, sIdeal = 0;
    /** Energy ratios over UM. */
    double eLms = 0, eMod = 0, eDum = 0;
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
    // per-cell output).
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

            auto speedup = [&](double t) {
                return t > 0 ? r.um.secPer100Iters / t : 0.0;
            };
            if (r.lms.ok)
                r.sLms = speedup(r.lms.secPer100Iters);
            if (r.lmsmod.ok)
                r.sMod = speedup(r.lmsmod.secPer100Iters);
            r.sDum = speedup(r.dum.secPer100Iters);
            r.sIdeal = speedup(r.ideal.secPer100Iters);
            r.eLms = r.lms.energyJPerIter / r.um.energyJPerIter;
            r.eMod = r.lmsmod.energyJPerIter / r.um.energyJPerIter;
            r.eDum = r.dum.energyJPerIter / r.um.energyJPerIter;
            return r;
        });

    // Gmeans over the cells where each system ran.
    std::vector<double> s_lms, s_mod, s_dum, s_idl, e_lms, e_mod, e_dum;
    for (const Row &r : rows) {
        if (r.lms.ok) {
            s_lms.push_back(r.sLms);
            e_lms.push_back(r.eLms);
        }
        if (r.lmsmod.ok) {
            s_mod.push_back(r.sMod);
            e_mod.push_back(r.eMod);
        }
        s_dum.push_back(r.sDum);
        s_idl.push_back(r.sIdeal);
        e_dum.push_back(r.eDum);
    }
    const double gs_lms = harness::geomean(s_lms),
                 gs_mod = harness::geomean(s_mod),
                 gs_dum = harness::geomean(s_dum),
                 gs_idl = harness::geomean(s_idl),
                 ge_lms = harness::geomean(e_lms),
                 ge_mod = harness::geomean(e_mod),
                 ge_dum = harness::geomean(e_dum);

    banner("Figure 9(a): speedup of training throughput over naive UM");
    {
        harness::TextTable t(
            {"model/batch", "LMS", "LMS-mod", "DeepUM", "Ideal"});
        for (const Row &r : rows) {
            auto cell = [&](bool ok, double s) {
                return ok ? harness::fmtSpeedup(s) : std::string("OOM");
            };
            t.row({r.label, cell(r.lms.ok, r.sLms),
                   cell(r.lmsmod.ok, r.sMod),
                   harness::fmtSpeedup(r.sDum),
                   harness::fmtSpeedup(r.sIdeal)});
        }
        t.row({"gmean(where run)", harness::fmtSpeedup(gs_lms),
               harness::fmtSpeedup(gs_mod), harness::fmtSpeedup(gs_dum),
               harness::fmtSpeedup(gs_idl)});
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
        for (const Row &r : rows) {
            t.row({r.label,
                   r.lms.ok ? harness::fmtDouble(r.eLms) : "-",
                   r.lmsmod.ok ? harness::fmtDouble(r.eMod) : "-",
                   harness::fmtDouble(r.eDum)});
        }
        t.row({"gmean(where run)", harness::fmtDouble(ge_lms),
               harness::fmtDouble(ge_mod), harness::fmtDouble(ge_dum)});
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
        os << "{\n  \"cells\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
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
               << jnum(r.sLms, r.lms.ok) << ", \"lmsMod\": "
               << jnum(r.sMod, r.lmsmod.ok) << ", \"deepum\": "
               << jnum(r.sDum) << ", \"ideal\": " << jnum(r.sIdeal)
               << "},\n"
               << "     \"energyRatioOverUm\": {\"lms\": "
               << jnum(r.eLms, r.lms.ok) << ", \"lmsMod\": "
               << jnum(r.eMod, r.lmsmod.ok) << ", \"deepum\": "
               << jnum(r.eDum) << "}}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  ],\n"
           << "  \"gmeanSpeedup\": {\"lms\": "
           << jnum(gs_lms, !s_lms.empty()) << ", \"lmsMod\": "
           << jnum(gs_mod, !s_mod.empty())
           << ", \"deepum\": " << jnum(gs_dum)
           << ", \"ideal\": " << jnum(gs_idl) << "},\n"
           << "  \"gmeanEnergyRatio\": {\"lms\": "
           << jnum(ge_lms, !e_lms.empty()) << ", \"lmsMod\": "
           << jnum(ge_mod, !e_mod.empty())
           << ", \"deepum\": " << jnum(ge_dum) << "}\n"
           << "}\n";
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
