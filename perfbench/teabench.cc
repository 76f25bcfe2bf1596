/**
 * @file
 * teabench: the paper-pipeline benchmark (see README.md).
 *
 * One process runs one workload for a fixed measuring window and
 * prints one JSON line of metrics. Everything is driven through the
 * repository's public functions and timed from here, never from spans
 * inside the program:
 *
 *  - grid-cold: runEvaluationGrid on a small grid from an empty cache,
 *    so gate-level characterization dominates;
 *  - grid-warm: runEvaluationGrid on the paper's full grid with the
 *    characterization statistics already on disk (built by `--prep`
 *    in an earlier process), so golden prep and injection dominate;
 *  - daemon-mt: four closed-loop protocol clients against an
 *    in-process ServiceDaemon running multi-core campaigns.
 *
 * With --trace 1 the grids are additionally re-executed cell by cell
 * through planEvaluationGrid / cellModel / executeOneContained /
 * ShardJournal::append / saveGrid, with a timer around each call; the
 * re-execution must reproduce the untraced grid exactly.
 *
 * Usage:
 *   teabench --workload W --seed N --seconds S --trace 0|1 --work DIR
 *   teabench --prep --workload W --seed N --work DIR
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/workunit.hh"
#include "inject/campaign.hh"
#include "mc/mc_func_sim.hh"
#include "mc/mc_sim.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;
using namespace tea;
using core::CampaignCell;
using core::CellPlan;
using core::EvaluationGrid;
using core::GridSpec;
using core::Toolflow;
using core::ToolflowOptions;
using inject::CampaignResult;
using inject::InjectionCampaign;
using Clock = std::chrono::steady_clock;

namespace {

// ---- fixed workload geometry ------------------------------------------
// Changing any of these changes what the benchmark measures; they are
// constants, not options, so two builds of the benchmark always agree.

/** grid-cold: a characterization-bound subset of the paper's grid. */
const std::vector<std::string> kColdWorkloads = {"sobel", "k-means",
                                                 "hotspot"};
constexpr int kColdRuns = 2;
/** grid-warm: the paper's 7 x 3 x 2 grid, injection-bound. */
constexpr int kWarmRuns = 8;
/** daemon-mt: threaded workloads, core counts, runs per cell. */
const std::vector<std::string> kMtWorkloads = {"k-means-mt",
                                               "hotspot-mt"};
const std::vector<unsigned> kMtCores = {2, 4};
constexpr int kDaemonClients = 4;
/** Campaigns each client submits per daemon round. */
constexpr int kCampaignsPerClient = 2;
/** Minimum measured iterations, even past the window. */
constexpr int kMinIterations = 3;
/** Set-ups measured on their own before the window (grids). */
constexpr int kExtraSetups = 20;

/**
 * Start another iteration while fewer than kMinIterations ran, or
 * while one more of average length still ends inside the window.
 */
bool
anotherIteration(size_t done, double elapsed, double seconds)
{
    if (done < static_cast<size_t>(kMinIterations))
        return true;
    return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Restart the kernel's peak-resident-memory mark (VmHWM) at the current
 * resident size, so the next peakRssMib() covers one iteration. When
 * the kernel refuses, peakRssMib() keeps covering the whole process.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

unsigned
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw ? hw : 1u));
}

// ---- metric output ----------------------------------------------------

struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    void fail(const std::string &why)
    {
        correct = false;
        std::printf("check failed: %s\n", why.c_str());
    }

    void print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        std::isfinite(metrics[i].value) ? metrics[i].value
                                                        : 0.0,
                        metrics[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

// ---- options and prepared statistics ------------------------------------

ToolflowOptions
pipelineOptions(uint64_t seed, const std::string &cacheDir, int runs)
{
    ToolflowOptions opt; // defaults; the environment is not consulted
    opt.seed = seed;
    opt.cacheDir = cacheDir;
    opt.runsPerCell = runs;
    opt.threads = benchThreads();
    // Half the toolflow's default characterization sizes: every
    // workload keeps several iterations inside one measuring window.
    opt.iaCountPerOp = 2000;
    opt.waMaxOps = 10000;
    opt.daSampleOps = 10000;
    return opt;
}

GridSpec
gridSpec(const std::string &workload)
{
    GridSpec spec;
    if (workload == "grid-cold")
        spec.workloads = kColdWorkloads;
    return spec; // grid-warm: every workload
}

/** The statistics a prepared cache must hold for `workload`. */
std::vector<CellPlan>
statsCells(const std::string &workload, uint64_t seed)
{
    if (workload == "daemon-mt") {
        GridSpec spec;
        spec.workloads = kMtWorkloads;
        return core::planEvaluationGrid(pipelineOptions(seed, "", 1),
                                        spec);
    }
    return core::planEvaluationGrid(pipelineOptions(seed, "", 1),
                                    gridSpec(workload));
}

/** Load (or, in --prep, compute) the statistics one cell's model uses. */
void
touchStats(Toolflow &tf, const CellPlan &cell)
{
    switch (cell.model) {
      case models::ModelKind::DA: tf.daErrorRatio(cell.vrFrac); break;
      case models::ModelKind::IA: tf.iaStats(cell.vrFrac); break;
      case models::ModelKind::WA:
        tf.waStats(cell.workload, cell.vrFrac);
        break;
    }
}

std::string
preparedDir(const std::string &work, const std::string &workload,
            uint64_t seed)
{
    return work + "/stats/" + workload + "-s" + std::to_string(seed);
}

/** Build the warm statistics cache for (workload, seed) once. */
int
prepare(const std::string &work, const std::string &workload,
        uint64_t seed)
{
    std::string dir = preparedDir(work, workload, seed);
    if (fs::exists(dir + "/READY"))
        return 0;
    std::string tmp = dir + ".tmp" + std::to_string(getpid());
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    {
        Toolflow tf(pipelineOptions(seed, tmp, 1));
        for (const CellPlan &cell : statsCells(workload, seed))
            touchStats(tf, cell);
    }
    std::ofstream(tmp + "/READY") << "ok\n";
    fs::remove_all(dir);
    fs::rename(tmp, dir);
    return 0;
}

/** A fresh cache dir holding a copy of the prepared statistics. */
void
freshCache(const std::string &dir, const std::string &prepared)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    if (prepared.empty())
        return;
    for (const auto &e : fs::directory_iterator(prepared))
        if (e.path().extension() == ".stats")
            fs::copy_file(e.path(), dir + "/" +
                                        e.path().filename().string());
}

// ---- correctness gate ---------------------------------------------------

/** Exact text of every counter a cell carries (CRC and comparisons). */
std::string
cellText(const CampaignCell &c)
{
    const CampaignResult &r = c.result;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s %s vr%.4f runs=%llu masked=%llu sdc=%llu crash=%llu "
        "timeout=%llu ef=%llu retries=%llu injected=%llu "
        "committed=%llu wrongpath=%llu w=%.17g,%.17g,%.17g,%.17g "
        "mc=%llu,%llu,%llu,%llu,%llu",
        c.workload.c_str(), models::modelKindName(c.model), c.vrFrac,
        static_cast<unsigned long long>(r.runs),
        static_cast<unsigned long long>(r.masked),
        static_cast<unsigned long long>(r.sdc),
        static_cast<unsigned long long>(r.crash),
        static_cast<unsigned long long>(r.timeout),
        static_cast<unsigned long long>(r.engineFault),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.injectedErrors),
        static_cast<unsigned long long>(r.committedInstructions),
        static_cast<unsigned long long>(r.wrongPathInjections),
        r.weightSum, r.weightUnsafe, r.weightSqSum, r.weightUnsafeSqSum,
        static_cast<unsigned long long>(r.mcCoherenceMasked),
        static_cast<unsigned long long>(r.mcSdcSameCore),
        static_cast<unsigned long long>(r.mcSdcCrossCore),
        static_cast<unsigned long long>(r.mcSyncCrash),
        static_cast<unsigned long long>(r.mcDeadlock));
    return buf;
}

uint32_t
gridCrc(const std::vector<CampaignCell> &cells)
{
    uint32_t crc = 0;
    for (const auto &c : cells) {
        std::string t = cellText(c) + "\n";
        crc = crc32(t.data(), t.size(), crc);
    }
    return crc;
}

/** Why `cell` is not a valid result of `plan` ("" when it is). */
std::string
cellProblem(const CellPlan &plan, const CampaignCell &cell)
{
    const CampaignResult &r = cell.result;
    if (cell.workload != plan.workload || cell.model != plan.model ||
        std::fabs(cell.vrFrac - plan.vrFrac) > 1e-9)
        return "cell " + std::to_string(plan.index) + " is " +
               cell.workload + "/" + models::modelKindName(cell.model) +
               ", planned " + plan.workload + "/" +
               models::modelKindName(plan.model);
    if (r.runs != static_cast<uint64_t>(plan.runCap))
        return "cell " + std::to_string(plan.index) + " has " +
               std::to_string(r.runs) + " runs, planned " +
               std::to_string(plan.runCap);
    if (r.masked + r.sdc + r.crash + r.timeout + r.engineFault != r.runs)
        return "cell " + std::to_string(plan.index) +
               " outcome counts do not sum to its runs";
    bool threaded = workloads::isThreadedWorkload(plan.workload);
    bool subsets = threaded
                       ? r.mcCoherenceMasked <= r.masked &&
                             r.mcSdcSameCore + r.mcSdcCrossCore == r.sdc &&
                             r.mcSyncCrash <= r.crash &&
                             r.mcDeadlock <= r.timeout
                       : r.mcCoherenceMasked + r.mcSdcSameCore +
                                 r.mcSdcCrossCore + r.mcSyncCrash +
                                 r.mcDeadlock ==
                             0;
    if (!subsets)
        return "cell " + std::to_string(plan.index) +
               " breaks the multi-core outcome subset rules";
    return "";
}

struct GridCheck
{
    uint64_t attempted = 0; ///< planned injection runs
    uint64_t failed = 0;    ///< runs in wrong cells, or EngineFaults
    uint64_t wrongCells = 0;
    std::string firstProblem;
};

GridCheck
checkGrid(const std::vector<CellPlan> &plan,
          const std::vector<CampaignCell> &cells)
{
    GridCheck gc;
    for (size_t i = 0; i < plan.size(); ++i) {
        gc.attempted += static_cast<uint64_t>(plan[i].runCap);
        std::string why = i < cells.size()
                              ? cellProblem(plan[i], cells[i])
                              : "cell " + std::to_string(i) + " missing";
        if (!why.empty()) {
            ++gc.wrongCells;
            gc.failed += static_cast<uint64_t>(plan[i].runCap);
            if (gc.firstProblem.empty())
                gc.firstProblem = why;
        } else {
            gc.failed += cells[i].result.engineFault;
        }
    }
    if (cells.size() > plan.size()) {
        gc.wrongCells += cells.size() - plan.size();
        if (gc.firstProblem.empty())
            gc.firstProblem = "more cells than planned";
    }
    return gc;
}

// ---- grids: untraced iterations -----------------------------------------

struct GridIteration
{
    double setupS = 0;
    double pipelineS = 0;
    double peakRssMib = 0;
    EvaluationGrid grid;
};

/**
 * One set-up: a toolflow, plus every cell's statistics loaded from disk
 * on grid-warm.
 */
std::unique_ptr<Toolflow>
setUpGrid(const std::string &workload, uint64_t seed,
          const std::string &cacheDir, bool warm)
{
    auto tf = std::make_unique<Toolflow>(pipelineOptions(
        seed, cacheDir, warm ? kWarmRuns : kColdRuns));
    if (warm)
        for (const CellPlan &cell :
             core::planEvaluationGrid(tf->options(), gridSpec(workload)))
            touchStats(*tf, cell);
    return tf;
}

GridIteration
runGridIteration(const std::string &workload, uint64_t seed,
                 const std::string &cacheDir, bool warm)
{
    GridIteration it;
    resetPeakRss();
    auto t0 = Clock::now();
    std::unique_ptr<Toolflow> tfp =
        setUpGrid(workload, seed, cacheDir, warm);
    Toolflow &tf = *tfp;
    it.setupS = since(t0);

    auto t1 = Clock::now();
    it.grid = core::runEvaluationGrid(tf, gridSpec(workload));
    it.pipelineS = since(t1);
    it.peakRssMib = peakRssMib();
    return it;
}

// ---- grids: traced re-execution -----------------------------------------

struct LayerTimes
{
    double characterizeS = 0;
    uint64_t dtaOps = 0;
    double statsLoadMs = 0;
    double simGoldenMs = 0;
    double workloadsBuildMs = 0;
    double modelsBuildMs = 0;
    std::vector<double> planUs;
    std::vector<double> runMs;
    double busyS = 0;
    double poolCapacityS = 0; ///< sum over cells of wall x threads
    uint64_t retries = 0;
    uint64_t simInstr = 0;
    std::vector<double> appendUs;
    double gridSaveMs = 0;
    double coveredS = 0; ///< pipeline time inside timed calls
    double pipelineS = 0;
};

/** Fold records exactly as InjectionCampaign::run aggregates them. */
CampaignResult
aggregate(const InjectionCampaign &campaign,
          const models::ErrorModel &model,
          const std::vector<InjectionCampaign::RunRecord> &records)
{
    using inject::McClass;
    using inject::Outcome;
    CampaignResult out;
    out.workload = campaign.workload().name;
    out.model = model.describe();
    out.weightedModel = model.weightedProposal();
    for (const auto &rec : records) {
        ++out.runs;
        out.retries += rec.attempts - 1;
        if (rec.outcome == Outcome::EngineFault) {
            ++out.engineFault;
            continue;
        }
        out.injectedErrors += rec.injected;
        out.committedInstructions += rec.committed;
        out.wrongPathInjections += rec.wrongPath;
        double w = inject::likelihoodWeight(rec.logWeight);
        out.weightSum += w;
        out.weightSqSum += w * w;
        if (rec.outcome != Outcome::Masked) {
            out.weightUnsafe += w;
            out.weightUnsafeSqSum += w * w;
        }
        switch (rec.outcome) {
          case Outcome::Masked: ++out.masked; break;
          case Outcome::SDC: ++out.sdc; break;
          case Outcome::Crash: ++out.crash; break;
          case Outcome::Timeout: ++out.timeout; break;
          case Outcome::EngineFault: break;
        }
        switch (rec.mcClass) {
          case McClass::CoherenceMasked: ++out.mcCoherenceMasked; break;
          case McClass::SdcSameCore: ++out.mcSdcSameCore; break;
          case McClass::SdcCrossCore: ++out.mcSdcCrossCore; break;
          case McClass::SyncCrash: ++out.mcSyncCrash; break;
          case McClass::Deadlock: ++out.mcDeadlock; break;
          default: break;
        }
    }
    return out;
}

/**
 * runEvaluationGrid's work, one public call at a time, each timed.
 * Randomness follows runGridCell: the cell's Rng is restored from
 * CellPlan::rngState and split once, and run i is
 * executeOneContained(base, i).
 */
EvaluationGrid
tracedGrid(const std::string &workload, uint64_t seed,
           const std::string &cacheDir, bool warm, LayerTimes &lt)
{
    ToolflowOptions opt = pipelineOptions(
        seed, cacheDir, warm ? kWarmRuns : kColdRuns);
    Toolflow tf(opt);
    std::vector<CellPlan> plan =
        core::planEvaluationGrid(opt, gridSpec(workload));
    if (warm) {
        auto ts = Clock::now();
        for (const CellPlan &cell : plan)
            touchStats(tf, cell);
        lt.statsLoadMs += since(ts) * 1e3;
    }

    auto tp = Clock::now();
    auto timed = [&](auto &&fn) {
        auto t = Clock::now();
        fn();
        double s = since(t);
        lt.coveredS += s;
        return s;
    };
    EvaluationGrid grid;
    std::set<std::string> built;
    std::string jdir = cacheDir + "/traced";
    fs::create_directories(jdir);
    const CancelToken &cancel = CancelToken::processWide();
    for (const CellPlan &cell : plan) {
        if (built.insert(cell.workload).second) {
            lt.workloadsBuildMs +=
                timed([&] { tf.workload(cell.workload); }) * 1e3;
            lt.simGoldenMs +=
                timed([&] { tf.campaign(cell.workload); }) * 1e3;
        }
        InjectionCampaign &campaign = tf.campaign(cell.workload);

        uint64_t misses = counterValue(obs::metric::kCacheMisses);
        uint64_t ops = counterValue(obs::metric::kDtaOps);
        double s = timed([&] { touchStats(tf, cell); });
        if (counterValue(obs::metric::kCacheMisses) != misses) {
            lt.characterizeS += s;
            lt.dtaOps += counterValue(obs::metric::kDtaOps) - ops;
        } else {
            lt.statsLoadMs += s * 1e3;
        }

        std::unique_ptr<models::ErrorModel> model;
        lt.modelsBuildMs +=
            timed([&] { model = core::cellModel(tf, cell); }) * 1e3;
        {
            // Plans drawn on a private stream: the cell's own stream
            // is left untouched for the runs below.
            Rng planRng(seed ^ (cell.index * 0x9e3779b97f4a7c15ULL));
            for (int k = 0; k < 8; ++k) {
                auto t = Clock::now();
                model->plan(campaign.profile(), planRng);
                lt.planUs.push_back(since(t) * 1e6);
            }
        }

        core::ShardJournal journal(jdir + "/cell" +
                                   std::to_string(cell.index) + ".jnl");
        journal.open(core::cellIdentity(opt, cell.workload, *model,
                                        cell.vrFrac),
                     false);
        Rng cellRng = Rng::fromState(cell.rngState);
        Rng base = cellRng.split();
        InjectionCampaign::RunOptions ro;
        ro.pool = &tf.pool();
        ro.cancel = &cancel;
        ro.runDeadlineMs = opt.runDeadlineMs;
        ro.maxAttempts = opt.maxRunAttempts;
        size_t n = static_cast<size_t>(cell.runCap);
        std::vector<InjectionCampaign::RunRecord> records(n);
        std::vector<double> runMs(n), appendUs(n);
        double wall = timed([&] {
            tf.pool().parallelFor(0, n, [&](uint64_t i, unsigned) {
                auto tr = Clock::now();
                records[i] =
                    campaign.executeOneContained(*model, base, i, ro);
                auto ta = Clock::now();
                journal.append(i, records[i]);
                runMs[i] =
                    std::chrono::duration<double, std::milli>(ta - tr)
                        .count();
                appendUs[i] = since(ta) * 1e6;
            });
        });
        for (size_t i = 0; i < n; ++i) {
            lt.busyS += runMs[i] / 1e3;
            lt.runMs.push_back(runMs[i]);
            lt.appendUs.push_back(appendUs[i]);
            lt.retries += records[i].attempts - 1;
            lt.simInstr += records[i].committed;
        }
        lt.poolCapacityS += wall * tf.pool().numThreads();
        journal.remove();

        CampaignCell out;
        out.workload = cell.workload;
        out.model = cell.model;
        out.vrFrac = cell.vrFrac;
        out.result = aggregate(campaign, *model, records);
        grid.cells.push_back(std::move(out));
    }
    lt.gridSaveMs +=
        timed([&] { core::saveGrid(jdir + "/grid.csv", grid); }) * 1e3;
    lt.pipelineS = since(tp);
    return grid;
}

// ---- plain simulator runs (per-layer speed and the fingerprint) ---------

struct SimLayer
{
    double funcInstr = 0, funcS = 0;
    double oooInstr = 0, oooS = 0;
    double mcFuncInstr = 0, mcFuncS = 0;
    double mcInstr = 0, mcS = 0;
    double mcGoldenMs = 0;
    uint64_t cycles = 0, committed = 0, mispredicts = 0, l1Misses = 0;
    uint64_t mcCycles = 0, mcCommitted = 0, mcL2Misses = 0, mcC2c = 0,
             mcInval = 0;
    bool ok = true;
};

SimLayer
simulatorLayer(uint64_t seed)
{
    SimLayer s;
    for (const auto &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name, seed, 1);
        auto t = Clock::now();
        sim::FuncSim fsim(w.program);
        auto fres = fsim.run();
        s.funcS += since(t);
        s.funcInstr += static_cast<double>(fres.instructions);
        t = Clock::now();
        sim::OooSim osim(w.program);
        auto ores = osim.run(~0ULL);
        s.oooS += since(t);
        s.oooInstr += static_cast<double>(ores.committed);
        s.ok = s.ok && fres.status == sim::FuncSim::Status::Halted &&
               ores.status == sim::OooSim::Status::Halted;
        s.cycles += ores.cycles;
        s.committed += ores.committed;
        s.mispredicts += ores.branchMispredicts;
        s.l1Misses += ores.cacheMisses;
        std::printf("fingerprint sim %s cycles=%llu committed=%llu "
                    "mispredicts=%llu l1_misses=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(ores.cycles),
                    static_cast<unsigned long long>(ores.committed),
                    static_cast<unsigned long long>(ores.branchMispredicts),
                    static_cast<unsigned long long>(ores.cacheMisses));
    }
    for (const auto &name : kMtWorkloads) {
        for (unsigned cores : kMtCores) {
            workloads::Workload w =
                workloads::buildWorkload(name, seed, 1);
            mc::McFuncSim::Config fcfg;
            fcfg.cores = cores;
            auto t = Clock::now();
            mc::McFuncSim fsim(w.program, fcfg);
            auto fres = fsim.run();
            s.mcFuncS += since(t);
            s.mcFuncInstr += static_cast<double>(fres.instructions);
            mc::McConfig mcfg;
            mcfg.cores = cores;
            t = Clock::now();
            mc::McSim msim(w.program, mcfg);
            auto mres = msim.run(~0ULL);
            s.mcS += since(t);
            s.mcInstr += static_cast<double>(mres.committed);
            s.ok = s.ok &&
                   fres.status == mc::McFuncSim::Status::Halted &&
                   mres.status == mc::McSim::Status::Halted;
            s.mcCycles += mres.cycles;
            s.mcCommitted += mres.committed;
            s.mcL2Misses += mres.coh.l2Misses;
            s.mcC2c += mres.coh.c2cTransfers;
            s.mcInval += mres.coh.invalidations;
            std::printf(
                "fingerprint mc %s cores=%u cycles=%llu committed=%llu "
                "l2_misses=%llu c2c=%llu invalidations=%llu\n",
                name.c_str(), cores,
                static_cast<unsigned long long>(mres.cycles),
                static_cast<unsigned long long>(mres.committed),
                static_cast<unsigned long long>(mres.coh.l2Misses),
                static_cast<unsigned long long>(mres.coh.c2cTransfers),
                static_cast<unsigned long long>(mres.coh.invalidations));
            t = Clock::now();
            auto campaign =
                InjectionCampaign::create(std::move(w), {}, mcfg);
            s.mcGoldenMs += since(t) * 1e3;
            s.ok = s.ok && campaign.ok();
        }
    }
    return s;
}

void
addSimLayer(Report &rep, const SimLayer &s)
{
    if (!s.ok)
        rep.fail("a plain simulator run did not halt");
    rep.add("sim.func_mips", s.funcInstr / s.funcS / 1e6, "Minstr/s");
    rep.add("sim.ooo_kips", s.oooInstr / s.oooS / 1e3, "kinstr/s");
    rep.add("mc.func_mips", s.mcFuncInstr / s.mcFuncS / 1e6, "Minstr/s");
    rep.add("mc.kips", s.mcInstr / s.mcS / 1e3, "kinstr/s");
    rep.add("sim.cycles", static_cast<double>(s.cycles), "count");
    rep.add("sim.committed", static_cast<double>(s.committed), "count");
    rep.add("sim.mispredicts", static_cast<double>(s.mispredicts),
            "count");
    rep.add("sim.l1_misses", static_cast<double>(s.l1Misses), "count");
    rep.add("mc.cycles", static_cast<double>(s.mcCycles), "count");
    rep.add("mc.committed", static_cast<double>(s.mcCommitted), "count");
    rep.add("mc.l2_misses", static_cast<double>(s.mcL2Misses), "count");
    rep.add("mc.c2c_transfers", static_cast<double>(s.mcC2c), "count");
    rep.add("mc.invalidations", static_cast<double>(s.mcInval), "count");
}

// ---- grid workloads ------------------------------------------------------

void
printCells(const char *tag, const std::vector<CampaignCell> &cells)
{
    for (const auto &c : cells)
        std::printf("%s %s\n", tag, cellText(c).c_str());
    std::printf("%s crc=%08x cells=%zu\n", tag, gridCrc(cells),
                cells.size());
}

int
runGrid(const std::string &workload, uint64_t seed, double seconds,
        bool trace, const std::string &work)
{
    const bool warm = workload == "grid-warm";
    std::string prepared =
        warm ? preparedDir(work, workload, seed) : std::string();
    if (warm && !fs::exists(prepared + "/READY")) {
        std::fprintf(stderr, "teabench: %s not prepared; run --prep\n",
                     prepared.c_str());
        return 2;
    }
    std::string cacheDir = work + "/run" + std::to_string(getpid());
    std::vector<CellPlan> plan = core::planEvaluationGrid(
        pipelineOptions(seed, "", warm ? kWarmRuns : kColdRuns),
        gridSpec(workload));

    Report rep;
    // Set-up is short and the host's speed wanders: take extra set-up
    // samples besides the one each iteration makes.
    std::vector<double> setup;
    freshCache(cacheDir, prepared);
    for (int i = 0; i < kExtraSetups; ++i) {
        auto t0 = Clock::now();
        setUpGrid(workload, seed, cacheDir, warm);
        setup.push_back(since(t0));
    }
    std::vector<GridIteration> its;
    auto window = Clock::now();
    while (anotherIteration(its.size(), since(window), seconds)) {
        freshCache(cacheDir, prepared);
        its.push_back(runGridIteration(workload, seed, cacheDir, warm));
        const auto &cells = its.back().grid.cells;
        GridCheck gc = checkGrid(plan, cells);
        rep.attempted += gc.attempted;
        rep.failed += gc.failed;
        if (!gc.firstProblem.empty())
            rep.fail(gc.firstProblem);
        if (gridCrc(cells) != gridCrc(its.front().grid.cells))
            rep.fail("iteration " + std::to_string(its.size() - 1) +
                     " differs from iteration 0 under the same seed");
        if (trace)
            break; // one untraced reference is enough for the trace
    }
    printCells("cell", its.front().grid.cells);

    std::vector<double> pipeline, rss;
    for (const auto &it : its) {
        setup.push_back(it.setupS);
        rss.push_back(it.peakRssMib);
        pipeline.push_back(it.pipelineS);
    }
    std::printf("iterations=%zu pipeline_s=[", its.size());
    for (double p : pipeline)
        std::printf(" %.3f", p);
    std::printf(" ]\n");

    if (!trace) {
        rep.add("setup_s", median(setup), "s");
        rep.add("pipeline_s", median(pipeline), "s");
        rep.add("peak_rss_mib", median(rss), "MiB");
        rep.add("fail_ratio",
                static_cast<double>(rep.failed) /
                    static_cast<double>(std::max<uint64_t>(1,
                                                           rep.attempted)),
                "ratio");
    } else {
        freshCache(cacheDir, prepared);
        LayerTimes lt;
        EvaluationGrid traced =
            tracedGrid(workload, seed, cacheDir, warm, lt);
        if (gridCrc(traced.cells) != gridCrc(its.front().grid.cells)) {
            printCells("traced", traced.cells);
            rep.fail("traced re-execution differs from the untraced grid");
        }
        SimLayer sl = simulatorLayer(seed);
        double untraced = its.front().pipelineS;
        rep.add("core.characterize_s", lt.characterizeS, "s");
        rep.add("timing.dta_ops", static_cast<double>(lt.dtaOps), "count");
        rep.add("timing.dta_ops_per_s",
                lt.characterizeS > 0 ? lt.dtaOps / lt.characterizeS : 0.0,
                "1/s");
        rep.add("core.stats_load_ms", lt.statsLoadMs, "ms");
        rep.add("sim.golden_ms", lt.simGoldenMs, "ms");
        rep.add("mc.golden_ms", sl.mcGoldenMs, "ms");
        rep.add("workloads.build_ms", lt.workloadsBuildMs, "ms");
        rep.add("models.build_ms", lt.modelsBuildMs, "ms");
        rep.add("models.plan_us", median(lt.planUs), "us");
        rep.add("inject.runs", static_cast<double>(lt.runMs.size()),
                "count");
        rep.add("inject.run_p50_ms", quantile(lt.runMs, 0.5), "ms");
        rep.add("inject.run_p99_ms", quantile(lt.runMs, 0.99), "ms");
        rep.add("inject.busy_s", lt.busyS, "s");
        rep.add("inject.retry_ratio",
                static_cast<double>(lt.retries) /
                    static_cast<double>(std::max<size_t>(1,
                                                         lt.runMs.size())),
                "ratio");
        rep.add("inject.pool_util",
                lt.poolCapacityS > 0 ? lt.busyS / lt.poolCapacityS : 0.0,
                "ratio");
        rep.add("inject.sim_instr", static_cast<double>(lt.simInstr),
                "count");
        rep.add("core.journal_append_us_p50", quantile(lt.appendUs, 0.5),
                "us");
        rep.add("core.journal_append_us_p99",
                quantile(lt.appendUs, 0.99), "us");
        rep.add("core.grid_save_ms", lt.gridSaveMs, "ms");
        rep.add("core.unattributed_s", untraced - lt.coveredS, "s");
        rep.add("obs.trace_overhead", lt.pipelineS / untraced - 1.0,
                "ratio");
        rep.add("grid.cells_crc",
                static_cast<double>(gridCrc(its.front().grid.cells)),
                "crc32");
        addSimLayer(rep, sl);
    }
    fs::remove_all(cacheDir);
    rep.print();
    return 0;
}

// ---- daemon-mt -----------------------------------------------------------

struct CampaignSample
{
    double submitS = 0;   ///< SUBMIT round trip
    double firstCellS = 0;
    double doneS = 0;     ///< SUBMIT to final WATCH status
    double endS = 0;      ///< round start to final WATCH status
    bool refused = false;
    bool failed = false;
    uint64_t wrongCells = 0;
    std::string problem;
};

/** The round's campaign mix: every threaded workload at every core
 *  count, at two run counts drawn from the seed. */
std::vector<fleet::FleetPlan>
daemonPlans(uint64_t seed)
{
    Rng rng(seed ^ 0xdae7ULL);
    int r0 = 3 + static_cast<int>(rng.next() % 3);
    std::vector<fleet::FleetPlan> plans;
    for (int r : {r0, r0 + 1})
        for (unsigned cores : kMtCores)
            for (const auto &w : kMtWorkloads) {
                fleet::FleetPlan p;
                p.opt = pipelineOptions(seed, "", r);
                p.opt.threads = 1;
                p.opt.mcCores = cores;
                p.spec.workloads = {w};
                plans.push_back(std::move(p));
            }
    // A seeded shuffle decides which client submits what, and when.
    for (size_t i = plans.size(); i > 1; --i)
        std::swap(plans[i - 1], plans[rng.next() % i]);
    return plans;
}

struct DaemonRound
{
    bool started = false; ///< the daemon bound its socket
    double setupS = 0;
    double pipelineS = 0;
    double peakRssMib = 0;
    std::vector<CampaignSample> campaigns;
    std::vector<double> statusRttUs;
};

DaemonRound
runDaemonRound(uint64_t seed, const std::string &cacheDir,
               const std::string &socketPath)
{
    DaemonRound round;
    resetPeakRss();
    auto t0 = Clock::now();
    service::DaemonOptions dopt;
    dopt.socketPath = socketPath;
    dopt.cacheDir = cacheDir;
    dopt.spoolRoot = cacheDir + "/spool";
    dopt.concurrency = kDaemonClients;
    dopt.queueCap = kDaemonClients * kCampaignsPerClient;
    dopt.clientInflight = kCampaignsPerClient;
    dopt.fleet.workers = 0;
    service::ServiceDaemon daemon(dopt);
    round.started = daemon.start();
    if (!round.started)
        return round;
    round.setupS = since(t0);

    std::vector<fleet::FleetPlan> plans = daemonPlans(seed);
    round.campaigns.resize(plans.size());
    std::atomic<int> active{kDaemonClients};
    auto tr = Clock::now();
    std::vector<std::thread> clients;
    for (int k = 0; k < kDaemonClients; ++k) {
        clients.emplace_back([&, k] {
            auto client = service::Client::connectUnix(
                socketPath, "client" + std::to_string(k));
            for (size_t i = k; i < plans.size(); i += kDaemonClients) {
                CampaignSample &cs = round.campaigns[i];
                if (!client) {
                    cs.refused = true;
                    continue;
                }
                auto ts = Clock::now();
                service::Client::Submitted sub;
                if (!client->submit(plans[i].serialize(), sub)) {
                    cs.refused = true;
                    cs.problem = client->lastError().detail;
                    continue;
                }
                cs.submitS = since(ts);
                std::vector<CampaignCell> cells;
                service::Client::Status fin;
                bool ok = client->watch(
                    sub.id,
                    [&](const CampaignCell &cell) {
                        if (cells.empty())
                            cs.firstCellS = since(ts);
                        cells.push_back(cell);
                    },
                    fin);
                cs.doneS = since(ts);
                cs.endS = since(tr);
                GridCheck gc = checkGrid(
                    core::planEvaluationGrid(plans[i].opt, plans[i].spec),
                    cells);
                cs.wrongCells = gc.wrongCells;
                cs.failed = !ok || fin.state != "done" || gc.failed > 0;
                cs.problem = !ok ? "watch failed"
                             : fin.state != "done"
                                 ? "campaign ended " + fin.state
                                 : gc.firstProblem;
            }
            active.fetch_sub(1);
        });
    }
    // One prober measures STATUS round trips while the daemon is busy.
    std::thread prober([&] {
        auto client = service::Client::connectUnix(socketPath, "prober");
        service::Client::Status st;
        while (client && active.load() > 0) {
            auto t = Clock::now();
            client->status(1, st);
            round.statusRttUs.push_back(since(t) * 1e6);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    for (auto &t : clients)
        t.join();
    prober.join();
    round.pipelineS = 0;
    for (const auto &cs : round.campaigns)
        round.pipelineS = std::max(round.pipelineS, cs.endS);
    daemon.stop();
    round.peakRssMib = peakRssMib();
    return round;
}

int
runDaemon(uint64_t seed, double seconds, bool trace,
          const std::string &work)
{
    std::string prepared = preparedDir(work, "daemon-mt", seed);
    if (!fs::exists(prepared + "/READY")) {
        std::fprintf(stderr, "teabench: %s not prepared; run --prep\n",
                     prepared.c_str());
        return 2;
    }
    std::string cacheDir = work + "/run" + std::to_string(getpid());
    // sun_path is short: bind a path relative to the working directory.
    std::string socketPath =
        fs::relative(cacheDir + ".sock", fs::current_path()).string();

    Report rep;
    std::vector<DaemonRound> rounds;
    auto window = Clock::now();
    while (anotherIteration(rounds.size(), since(window), seconds)) {
        freshCache(cacheDir, prepared);
        rounds.push_back(runDaemonRound(seed, cacheDir, socketPath));
        if (!rounds.back().started) {
            std::fprintf(stderr, "teabench: cannot bind %s\n",
                         socketPath.c_str());
            fs::remove_all(cacheDir);
            return 2;
        }
        if (trace)
            break;
    }
    std::vector<double> setup, pipeline, campaign, first, submit, rtt, rss;
    uint64_t attempted = 0, failed = 0, rejects = 0, wrong = 0;
    for (const auto &r : rounds) {
        setup.push_back(r.setupS);
        rss.push_back(r.peakRssMib);
        pipeline.push_back(r.pipelineS);
        rtt.insert(rtt.end(), r.statusRttUs.begin(), r.statusRttUs.end());
        for (const auto &cs : r.campaigns) {
            ++attempted;
            if (cs.refused) {
                ++rejects;
                ++failed;
                continue;
            }
            failed += cs.failed ? 1 : 0;
            wrong += cs.wrongCells;
            campaign.push_back(cs.doneS);
            first.push_back(cs.firstCellS);
            submit.push_back(cs.submitS * 1e3);
            if (cs.failed && &r == &rounds.front())
                std::printf("campaign failed: %s\n", cs.problem.c_str());
        }
    }
    rep.attempted = attempted;
    rep.failed = failed;
    if (failed > 0)
        rep.fail(std::to_string(failed) + " of " +
                 std::to_string(attempted) +
                 " campaigns refused, failed or returned wrong cells");
    std::printf("rounds=%zu campaigns=%zu campaign_samples=%zu\n",
                rounds.size(), static_cast<size_t>(attempted),
                campaign.size());
    if (!trace) {
        rep.add("setup_s", median(setup), "s");
        rep.add("pipeline_s", median(pipeline), "s");
        rep.add("campaign_p50_s", median(campaign), "s");
        rep.add("first_cell_p50_s", median(first), "s");
        rep.add("peak_rss_mib", median(rss), "MiB");
        rep.add("fail_ratio",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<uint64_t>(1, attempted)),
                "ratio");
    } else {
        SimLayer sl = simulatorLayer(seed);
        rep.add("service.submit_ms", median(submit), "ms");
        rep.add("service.status_rtt_us_p50", quantile(rtt, 0.5), "us");
        rep.add("service.status_rtt_us_p99", quantile(rtt, 0.99), "us");
        rep.add("service.rejects", static_cast<double>(rejects), "count");
        rep.add("service.wrong_cells", static_cast<double>(wrong),
                "count");
        rep.add("mc.golden_ms", sl.mcGoldenMs, "ms");
        addSimLayer(rep, sl);
    }
    fs::remove_all(cacheDir);
    fs::remove(socketPath);
    rep.print();
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: teabench [--prep] --workload "
                 "grid-cold|grid-warm|daemon-mt --seed N --seconds S "
                 "--trace 0|1 --work DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, work;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false, prep = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--prep")
            prep = true;
        else if (a == "--workload" && (v = value()))
            workload = v;
        else if (a == "--seed" && (v = value()))
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds" && (v = value()))
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace" && (v = value()))
            trace = std::strcmp(v, "0") != 0;
        else if (a == "--work" && (v = value()))
            work = v;
        else
            return usage();
    }
    if (work.empty() || (workload != "grid-cold" &&
                         workload != "grid-warm" &&
                         workload != "daemon-mt"))
        return usage();
    setLogLevel(LogLevel::Warn);
    fs::create_directories(work);
    if (prep)
        return workload == "grid-cold" ? 0
                                       : prepare(work, workload, seed);
    if (workload == "daemon-mt")
        return runDaemon(seed, seconds, trace, work);
    return runGrid(workload, seed, seconds, trace, work);
}
