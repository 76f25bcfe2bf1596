/**
 * @file
 * Fleet worker-count scaling ladder (BENCH_fleet.json).
 *
 * Runs the same evaluation grid at 1, 2, 4 and 8 worker processes and
 * reports wall-clock, throughput and speedup vs the 1-worker fleet —
 * after verifying that every rung's grid CSV is byte-identical to the
 * single-process reference (scaling that changed the answer would not
 * be a result).
 *
 * Characterization caches are warmed by the reference run, so the
 * ladder times injection-campaign execution, not characterization.
 *
 * `--json <path>` writes the machine-readable report
 * (scripts/bench_snapshot.sh records it as BENCH_fleet.json).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/coordinator.hh"
#include "obs/json.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::core;

#ifndef TEA_WORKER_BIN
#define TEA_WORKER_BIN ""
#endif

namespace {

/** Delete the grid CSV and per-cell manifests so the next campaign
 * re-executes instead of loading the cache; characterization caches
 * stay warm. */
void
clearGridArtifacts(const ToolflowOptions &opt, const GridSpec &spec)
{
    std::filesystem::remove(gridCachePath(opt, spec));
    for (const CellPlan &cp : planEvaluationGrid(opt, spec))
        std::filesystem::remove(
            cellManifestPath(opt, cp.workload, cp.model, cp.vrFrac));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    std::string jsonPath = bench::consumeFlagValue(argc, argv, "--json");
    bench::banner("fleet worker-count scaling ladder",
                  "methodology Sec. III (multi-process campaigns)");

    ToolflowOptions opt = optionsFromEnv();
    if (!std::getenv("REPRO_RUNS"))
        opt.runsPerCell = 8; // ladder default: small but real cells
    opt.threads = 1;         // scaling comes from processes, not threads
    if (!std::getenv("REPRO_CACHE"))
        opt.cacheDir = "/tmp/tea_bench_fleet_cache";

    GridSpec spec; // all workloads x models x vrLevels
    std::vector<CellPlan> cells = planEvaluationGrid(opt, spec);
    std::printf("grid: %zu cells x %d runs, cache %s\n\n",
                cells.size(), opt.runsPerCell, opt.cacheDir.c_str());

    fleet::FleetOptions fopt = fleet::fleetOptionsFromEnv();
    if (fopt.workerBin.empty())
        fopt.workerBin = TEA_WORKER_BIN;
    if (fopt.workerBin.empty() ||
        !std::filesystem::exists(fopt.workerBin)) {
        std::printf("fleet_scaling: no tea-worker binary (set "
                    "REPRO_FLEET_WORKER_BIN)\n");
        return 2;
    }

    // Single-process reference: warms every characterization cache and
    // pins the bytes each ladder rung must reproduce.
    setQuiet(true);
    clearGridArtifacts(opt, spec);
    double refSec;
    {
        Toolflow tf(opt);
        bench::WallTimer t;
        runEvaluationGrid(tf, spec);
        refSec = t.seconds();
    }
    std::string refCsv =
        readFileToString(gridCachePath(opt, spec)).value_or("");
    setQuiet(false);
    if (refCsv.empty()) {
        std::printf("fleet_scaling: reference grid produced no CSV\n");
        return 1;
    }
    std::printf("single-process reference: %.2f s\n\n", refSec);

    Table table({"workers", "seconds", "cells/s", "speedup", "identical"});
    obs::json::Array rows;
    bool passed = true;
    double oneWorkerSec = 0;
    for (int workers : {1, 2, 4, 8}) {
        setQuiet(true);
        clearGridArtifacts(opt, spec);
        fleet::FleetOptions f = fopt;
        f.workers = workers;
        f.spoolDir = opt.cacheDir + "/fleet_bench_w" +
                     std::to_string(workers);
        std::filesystem::remove_all(f.spoolDir);
        bench::WallTimer t;
        runFleetGrid(opt, f, spec);
        double sec = t.seconds();
        std::string csv =
            readFileToString(gridCachePath(opt, spec)).value_or("");
        setQuiet(false);
        bool identical = csv == refCsv;
        passed = passed && identical;
        if (workers == 1)
            oneWorkerSec = sec;
        double speedup = sec > 0 && oneWorkerSec > 0
                             ? oneWorkerSec / sec
                             : 0;
        table.addRow({std::to_string(workers), Table::num(sec, 2),
                      Table::num(sec > 0 ? cells.size() / sec : 0, 2),
                      Table::num(speedup, 2),
                      identical ? "yes" : "NO"});
        rows.push_back(obs::json::Object{
            {"workers", static_cast<int64_t>(workers)},
            {"seconds", sec},
            {"cellsPerSec", sec > 0 ? cells.size() / sec : 0.0},
            {"speedupVs1Worker", speedup},
            {"byteIdentical", identical},
        });
    }
    std::printf("%s\n", table.render("fleet scaling").c_str());
    std::printf("speedup is vs the 1-worker fleet; 'identical' "
                "compares each rung's grid CSV\nbyte-for-byte against "
                "the single-process reference (%.2f s)\n",
                refSec);
    if (!passed)
        std::printf("FAIL: a ladder rung diverged from the reference\n");

    if (!jsonPath.empty()) {
        obs::json::Object report{
            {"schema", "tea-bench-fleet-v1"},
            {"git", obs::gitDescribe()},
            {"passed", passed},
            {"cells", static_cast<int64_t>(cells.size())},
            {"runsPerCell", static_cast<int64_t>(opt.runsPerCell)},
            {"singleProcessSec", refSec},
            {"fleetScaling", std::move(rows)},
        };
        std::string text = obs::json::Value(std::move(report)).dump(2);
        if (!atomicWriteFile(jsonPath, text + "\n")) {
            std::printf("cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return passed ? 0 : 1;
}
