#include "core/results.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/journal.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "surrogate/importance.hh"
#include "util/crc32.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::core {

using inject::CampaignResult;
using models::ModelKind;

const CampaignResult *
EvaluationGrid::find(const std::string &workload, ModelKind model,
                     double vrFrac) const
{
    for (const auto &cell : cells) {
        if (cell.workload == workload && cell.model == model &&
            std::fabs(cell.vrFrac - vrFrac) < 1e-9)
            return &cell.result;
    }
    return nullptr;
}

void
saveGrid(const std::string &path, const EvaluationGrid &grid)
{
    std::ostringstream out;
    out << "workload,model,vr,runs,masked,sdc,crash,timeout,"
           "enginefault,retries,injected,committed,wrongpath,"
           "weighted,wsum,wunsafe,wsqsum,wusqsum,"
           "mcchm,mcscs,mcccs,mcsync,mcdead\n";
    for (const auto &c : grid.cells) {
        // %.17g round-trips any double exactly: reweighted AVM from a
        // reloaded grid is bit-identical to the freshly computed one.
        char wbuf[128];
        std::snprintf(wbuf, sizeof(wbuf), "%d,%.17g,%.17g,%.17g,%.17g",
                      c.result.weightedModel ? 1 : 0, c.result.weightSum,
                      c.result.weightUnsafe, c.result.weightSqSum,
                      c.result.weightUnsafeSqSum);
        out << c.workload << "," << static_cast<int>(c.model) << ","
            << c.vrFrac << "," << c.result.runs << "," << c.result.masked
            << "," << c.result.sdc << "," << c.result.crash << ","
            << c.result.timeout << "," << c.result.engineFault << ","
            << c.result.retries << "," << c.result.injectedErrors << ","
            << c.result.committedInstructions << ","
            << c.result.wrongPathInjections << "," << wbuf << ","
            << c.result.mcCoherenceMasked << ","
            << c.result.mcSdcSameCore << "," << c.result.mcSdcCrossCore
            << "," << c.result.mcSyncCrash << ","
            << c.result.mcDeadlock << "\n";
    }
    // Atomic publication: a reader (or a crash) never sees a torn grid.
    fatal_if(!atomicWriteFile(path, out.str()), "cannot write '%s'",
             path.c_str());
}

std::optional<EvaluationGrid>
loadGrid(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string header;
    std::getline(in, header);
    if (header.rfind("workload,model,vr", 0) != 0)
        return std::nullopt;
    EvaluationGrid grid;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        CampaignCell cell;
        std::string tok;
        int model;
        auto field = [&](auto &dst) {
            if (!std::getline(ls, tok, ','))
                return false;
            std::istringstream(tok) >> dst;
            return true;
        };
        if (!std::getline(ls, cell.workload, ','))
            return std::nullopt;
        int weighted = 0;
        if (!field(model) || !field(cell.vrFrac) ||
            !field(cell.result.runs) || !field(cell.result.masked) ||
            !field(cell.result.sdc) || !field(cell.result.crash) ||
            !field(cell.result.timeout) ||
            !field(cell.result.engineFault) ||
            !field(cell.result.retries) ||
            !field(cell.result.injectedErrors) ||
            !field(cell.result.committedInstructions) ||
            !field(cell.result.wrongPathInjections) ||
            !field(weighted) || !field(cell.result.weightSum) ||
            !field(cell.result.weightUnsafe) ||
            !field(cell.result.weightSqSum) ||
            !field(cell.result.weightUnsafeSqSum) ||
            !field(cell.result.mcCoherenceMasked) ||
            !field(cell.result.mcSdcSameCore) ||
            !field(cell.result.mcSdcCrossCore) ||
            !field(cell.result.mcSyncCrash) ||
            !field(cell.result.mcDeadlock))
            return std::nullopt;
        cell.result.weightedModel = weighted != 0;
        cell.model = static_cast<ModelKind>(model);
        cell.result.workload = cell.workload;
        cell.result.model = models::modelKindName(cell.model);
        grid.cells.push_back(std::move(cell));
    }
    return grid.cells.empty() ? std::nullopt
                              : std::make_optional(std::move(grid));
}

int
cellRunCap(const ToolflowOptions &opt)
{
    if (opt.adaptive() && opt.maxAdaptiveRuns > 0)
        return static_cast<int>(
            std::min<uint64_t>(opt.maxAdaptiveRuns, 1000000));
    return opt.runsPerCell;
}

namespace {

/**
 * Extra path/identity component in adaptive mode. Empty when adaptive
 * sizing is off, so every classic cache, journal, and grid file name
 * stays byte-for-byte what it was before adaptive mode existed.
 */
std::string
adaptiveSuffix(const ToolflowOptions &opt)
{
    if (!opt.adaptive())
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_a%gc%g", opt.ciTarget,
                  opt.ciConf);
    return buf;
}

/**
 * Extra path/identity component for importance-sampled campaigns.
 * IS changes the proposal distribution (different RNG consumption,
 * different per-run weights), so its grids and journals must never
 * share a file with plain campaigns of the same geometry. Empty when
 * IS is off.
 */
std::string
isSuffix(const ToolflowOptions &opt)
{
    if (!opt.isEnable)
        return "";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "_isb%gf%gm%gn%llu", opt.isBoost,
                  opt.isFloor, opt.isMaxTilted,
                  static_cast<unsigned long long>(opt.isCorpusPerOp));
    return buf;
}

/**
 * Extra path/identity component for threaded ("-mt") workloads: the
 * multi-core geometry changes golden references, plans, and outcomes,
 * so cells from different core counts or quanta must never share a
 * journal or manifest. Empty for single-core workloads — their file
 * names are untouched by the multi-core subsystem.
 */
std::string
mcSuffix(const ToolflowOptions &opt, const std::string &workload)
{
    if (!workloads::isThreadedWorkload(workload))
        return "";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "_c%uq%u", opt.mcCores,
                  opt.mcQuantum);
    return buf;
}

/** The workloads a spec covers (empty list = every workload). */
std::vector<std::string>
specWorkloads(const GridSpec &spec)
{
    if (!spec.workloads.empty())
        return spec.workloads;
    return workloads::workloadNames();
}

} // namespace

std::string
gridCachePath(const ToolflowOptions &opt, const GridSpec &spec)
{
    if (opt.cacheDir.empty())
        return "";
    // The grid's cells are a function of the ordered workload list, so
    // its CRC is part of the name: grids over different workloads in
    // one cache dir must never load each other's CSV.
    std::string workloads;
    for (const auto &name : specWorkloads(spec))
        workloads += name + "\n";
    char buf[160];
    // "_p5" = grid-file revision: p2 added the enginefault/retries
    // columns; p3 invalidated grids derived from float-precision
    // arrival times; p4 added the weighted-estimator columns
    // (weighted, wsum, wunsafe, wsqsum); p5 added the multi-core
    // refinement columns and the mc geometry in the name (a grid may
    // contain threaded cells, whose results depend on it).
    std::snprintf(buf, sizeof(buf),
                  "grid_r%d_s%llu_x%d%s%s_c%uq%u_w%08x_p5.csv",
                  cellRunCap(opt),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale, adaptiveSuffix(opt).c_str(),
                  isSuffix(opt).c_str(), opt.mcCores, opt.mcQuantum,
                  static_cast<unsigned>(crc32(workloads)));
    return opt.cacheDir + "/" + buf;
}

std::string
cellJournalPath(const ToolflowOptions &opt, const std::string &workload,
                ModelKind kind, double vr)
{
    char buf[160];
    // "_p5" = journal revision: record lines now carry the multi-core
    // outcome refinement (core/journal.cc, tea-journal-v3); p4 added
    // the run's exact log likelihood-ratio weight.
    std::snprintf(buf, sizeof(buf), "_m%d_vr%02d_s%llu_x%d%s%s%s_p5.jnl",
                  static_cast<int>(kind),
                  static_cast<int>(vr * 100 + 0.5),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale, adaptiveSuffix(opt).c_str(),
                  isSuffix(opt).c_str(),
                  mcSuffix(opt, workload).c_str());
    return opt.cacheDir + "/" +
           Toolflow::cacheTag(
               "jnl", workload,
               static_cast<uint64_t>(cellRunCap(opt))) +
           buf;
}

std::string
cellManifestPath(const ToolflowOptions &opt, const std::string &workload,
                 ModelKind kind, double vr)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "_m%d_vr%02d_s%llu_x%d%s%s%s.json",
                  static_cast<int>(kind),
                  static_cast<int>(vr * 100 + 0.5),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale, adaptiveSuffix(opt).c_str(),
                  isSuffix(opt).c_str(),
                  mcSuffix(opt, workload).c_str());
    return opt.cacheDir + "/" +
           Toolflow::cacheTag(
               "mft", workload,
               static_cast<uint64_t>(cellRunCap(opt))) +
           buf;
}

std::string
cellIdentity(const ToolflowOptions &opt, const std::string &workload,
             const models::ErrorModel &model, double vr)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "workload=%s model=%s vr=%.4f runs=%d seed=%llu "
                  "scale=%d",
                  workload.c_str(), model.describe().c_str(), vr,
                  cellRunCap(opt),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale);
    std::string id = buf;
    if (workloads::isThreadedWorkload(workload)) {
        // A threaded cell's runs depend on the mc geometry; journals
        // from a different one must not replay into this cell.
        std::snprintf(buf, sizeof(buf), " cores=%u quantum=%u",
                      opt.mcCores, opt.mcQuantum);
        id += buf;
    }
    if (opt.adaptive()) {
        // Journaled adaptive prefixes are only replayable into a
        // campaign with the same stopping rule.
        std::snprintf(buf, sizeof(buf), " ci=%g conf=%g", opt.ciTarget,
                      opt.ciConf);
        id += buf;
    }
    return id;
}

std::vector<CellPlan>
planEvaluationGrid(const ToolflowOptions &opt, const GridSpec &spec)
{
    // One rng.split() per cell, in exactly the order the classic
    // sequential loop consumed them — the plan is a transcript of that
    // loop's randomness, safe to execute in any process, any order.
    Rng rng(opt.seed ^ 0xe1a1ULL);
    std::vector<CellPlan> plan;
    const ModelKind kinds[] = {ModelKind::DA, ModelKind::IA,
                               ModelKind::WA};
    for (const auto &name : specWorkloads(spec)) {
        for (double vr : opt.vrLevels) {
            for (ModelKind kind : kinds) {
                CellPlan cell;
                cell.index = plan.size();
                cell.workload = name;
                cell.model = kind;
                cell.vrFrac = vr;
                cell.runCap = cellRunCap(opt);
                cell.rngState = rng.split().state();
                plan.push_back(std::move(cell));
            }
        }
    }
    return plan;
}

std::unique_ptr<models::ErrorModel>
cellModel(Toolflow &tf, const CellPlan &plan)
{
    const auto &opt = tf.options();
    // IS tilts per-site probabilities by operand risk, which only the
    // statistical (IA/WA) models have: the DA model injects uniformly
    // into any destination register, so it runs plain even with
    // REPRO_IS=1.
    auto importance =
        [&](const models::StatisticalModel &base)
        -> std::unique_ptr<models::ErrorModel> {
        return std::make_unique<surrogate::ImportanceModel>(
            base, tf.surrogate(), tf.trace(plan.workload), plan.vrFrac,
            opt.isBoost, opt.isFloor, opt.isMaxTilted);
    };
    switch (plan.model) {
      case ModelKind::DA:
        return std::make_unique<models::DaModel>(
            tf.daModel(plan.vrFrac));
      case ModelKind::IA: {
        auto base = tf.iaModel(plan.vrFrac);
        if (opt.isEnable)
            return importance(base);
        return std::make_unique<models::IaModel>(std::move(base));
      }
      case ModelKind::WA: {
        auto base = tf.waModel(plan.workload, plan.vrFrac);
        if (opt.isEnable)
            return importance(base);
        return std::make_unique<models::WaModel>(std::move(base));
      }
    }
    fatal("unknown model kind %d", static_cast<int>(plan.model));
    return nullptr;
}

CampaignCell
runGridCell(Toolflow &tf, const CellPlan &plan,
            const std::string &gridCsvPath,
            const std::function<
                void(uint64_t,
                     const inject::InjectionCampaign::RunRecord &)>
                &onFreshRecord)
{
    const auto &opt = tf.options();
    const CancelToken &cancel = CancelToken::processWide();
    auto &campaign = tf.campaign(plan.workload);
    auto model = cellModel(tf, plan);

    inform("campaign: %s %s VR%.0f (%d runs%s)...",
           plan.workload.c_str(), models::modelKindName(plan.model),
           plan.vrFrac * 100, plan.runCap,
           opt.adaptive() ? " max, adaptive" : "");
    Rng cellRng = Rng::fromState(plan.rngState);

    inject::InjectionCampaign::RunOptions ro;
    ro.pool = &tf.pool();
    ro.cancel = &cancel;
    ro.runDeadlineMs = opt.runDeadlineMs;
    ro.maxAttempts = opt.maxRunAttempts;
    ro.ciTarget = opt.ciTarget;
    ro.ciConf = opt.ciConf;
    std::unique_ptr<ShardJournal> journal;
    size_t replayable = 0;
    if (!opt.cacheDir.empty()) {
        journal = std::make_unique<ShardJournal>(cellJournalPath(
            opt, plan.workload, plan.model, plan.vrFrac));
        replayable = journal->open(
            cellIdentity(opt, plan.workload, *model, plan.vrFrac),
            opt.resume);
        if (replayable > 0)
            inform("resuming %s %s VR%.0f: %zu/%d runs journaled",
                   plan.workload.c_str(),
                   models::modelKindName(plan.model), plan.vrFrac * 100,
                   replayable, plan.runCap);
        ShardJournal *j = journal.get();
        ro.replay = [j](uint64_t i,
                        inject::InjectionCampaign::RunRecord &rec) {
            return j->tryReplay(i, rec);
        };
        ro.onComplete =
            [j, &onFreshRecord](
                uint64_t i,
                const inject::InjectionCampaign::RunRecord &rec) {
                j->append(i, rec);
                if (onFreshRecord)
                    onFreshRecord(i, rec);
            };
    } else if (onFreshRecord) {
        ro.onComplete = onFreshRecord;
    }

    CampaignCell cell;
    cell.workload = plan.workload;
    cell.model = plan.model;
    cell.vrFrac = plan.vrFrac;
    {
        obs::Span cellSpan(plan.workload + "/" +
                               models::modelKindName(plan.model),
                           "grid",
                           static_cast<int64_t>(plan.vrFrac * 100 + 0.5));
        cell.result =
            campaign.run(*model, plan.runCap, cellRng, ro);
    }
    if (journal && !cell.result.interrupted)
        journal->canonicalize();
    obs::Registry::global()
        .counter(obs::metric::kCampaignCells, "",
                 "evaluation-grid cells executed")
        .inc(1);
    if (!opt.cacheDir.empty()) {
        obs::RunManifest m;
        m.workload = plan.workload;
        m.model = models::modelKindName(plan.model);
        m.modelDetail = model->describe();
        m.vrFrac = plan.vrFrac;
        m.seed = opt.seed;
        m.runsPerCell = plan.runCap;
        m.workloadScale = opt.workloadScale;
        m.threads = tf.pool().numThreads();
        m.identity =
            cellIdentity(opt, plan.workload, *model, plan.vrFrac);
        m.journalPath =
            cellJournalPath(opt, plan.workload, plan.model, plan.vrFrac);
        m.gridCsvPath = gridCsvPath;
        m.runs = cell.result.runs;
        m.masked = cell.result.masked;
        m.sdc = cell.result.sdc;
        m.crash = cell.result.crash;
        m.timeout = cell.result.timeout;
        m.engineFault = cell.result.engineFault;
        m.retries = cell.result.retries;
        m.replayedRuns = replayable;
        m.injectedErrors = cell.result.injectedErrors;
        m.committedInstructions = cell.result.committedInstructions;
        m.interrupted = cell.result.interrupted;
        std::string mpath = cellManifestPath(opt, plan.workload,
                                             plan.model, plan.vrFrac);
        if (obs::writeRunManifest(mpath, std::move(m)))
            obs::Registry::global()
                .counter(obs::metric::kManifestsWritten, "",
                         "per-cell run manifests written")
                .inc(1);
        else
            logWarn("cannot write run manifest '%s'", mpath.c_str());
    }
    return cell;
}

EvaluationGrid
runEvaluationGrid(Toolflow &tf, bool useCache)
{
    GridSpec spec;
    spec.useCache = useCache;
    return runEvaluationGrid(tf, spec);
}

EvaluationGrid
runEvaluationGrid(Toolflow &tf, const GridSpec &spec)
{
    const auto &opt = tf.options();
    std::string cachePath;
    if (spec.useCache && !opt.cacheDir.empty()) {
        cachePath = gridCachePath(opt, spec);
        if (auto grid = loadGrid(cachePath)) {
            inform("loaded cached evaluation grid %s",
                   cachePath.c_str());
            return *grid;
        }
    }

    obs::Span gridSpan("toolflow.grid", "toolflow");
    // Every cell needs its workload's golden run; they are independent,
    // so prepare them all up front, concurrently.
    tf.prepareCampaigns(specWorkloads(spec));
    EvaluationGrid grid;
    std::vector<std::string> journalPaths;
    for (const CellPlan &plan : planEvaluationGrid(opt, spec)) {
        if (spec.stopFlag &&
            spec.stopFlag->load(std::memory_order_relaxed)) {
            grid.interrupted = true;
            break;
        }
        CampaignCell cell = runGridCell(tf, plan, cachePath);
        if (!opt.cacheDir.empty())
            journalPaths.push_back(cellJournalPath(
                opt, plan.workload, plan.model, plan.vrFrac));
        if (cell.result.interrupted) {
            // Partial cell: its completed runs are safely in the
            // journal; the aggregate is not comparable and is
            // reported, not recorded.
            inform("interrupted during %s %s VR%.0f after %llu/%d runs "
                   "(masked=%llu sdc=%llu crash=%llu timeout=%llu "
                   "enginefault=%llu)",
                   plan.workload.c_str(),
                   models::modelKindName(plan.model), plan.vrFrac * 100,
                   static_cast<unsigned long long>(cell.result.runs),
                   plan.runCap,
                   static_cast<unsigned long long>(cell.result.masked),
                   static_cast<unsigned long long>(cell.result.sdc),
                   static_cast<unsigned long long>(cell.result.crash),
                   static_cast<unsigned long long>(cell.result.timeout),
                   static_cast<unsigned long long>(
                       cell.result.engineFault));
            grid.interrupted = true;
            break;
        }
        grid.cells.push_back(std::move(cell));
        if (spec.onCell)
            spec.onCell(grid.cells.back());
    }
    if (grid.interrupted) {
        inform("evaluation grid interrupted with %zu cell(s) complete; "
               "rerun with REPRO_RESUME=1 to pick up where it stopped",
               grid.cells.size());
        return grid;
    }
    if (!cachePath.empty())
        saveGrid(cachePath, grid);
    // The grid is durably cached (or caching is off and the journals
    // have no future): the per-cell journals have served their purpose.
    for (const auto &p : journalPaths)
        ShardJournal(p).remove();
    return grid;
}

} // namespace tea::core
