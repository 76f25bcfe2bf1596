#include "fleet/coordinator.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/journal.hh"
#include "fleet/queue.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/watchdog.hh"

namespace tea::fleet {

using core::CellPlan;
using core::EvaluationGrid;
using core::GridSpec;
using core::ToolflowOptions;

namespace {

bool
envI64(const char *name, int64_t &out)
{
    const char *v = std::getenv(name);
    if (!v)
        return false;
    char *end = nullptr;
    errno = 0;
    long long parsed = std::strtoll(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0') {
        warn("ignoring malformed %s='%s'", name, v);
        return false;
    }
    out = parsed;
    return true;
}

/** All work units of a campaign, in canonical (plan) order. */
std::vector<WorkUnit>
planUnits(const ToolflowOptions &opt,
          const std::vector<CellPlan> &cells, uint64_t shardRuns)
{
    std::vector<WorkUnit> units;
    if (shardRuns > 0 && opt.adaptive()) {
        warn("fleet: run-range shards are incompatible with adaptive "
             "sizing (stopping is a whole-cell decision); using "
             "whole-cell units");
        shardRuns = 0;
    }
    for (const CellPlan &cell : cells) {
        if (shardRuns == 0) {
            WorkUnit u;
            u.id = units.size();
            u.kind = WorkUnit::Kind::Cell;
            u.cell = cell.index;
            units.push_back(u);
            continue;
        }
        for (uint64_t lo = 0;
             lo < static_cast<uint64_t>(cell.runCap);
             lo += shardRuns) {
            WorkUnit u;
            u.id = units.size();
            u.kind = WorkUnit::Kind::Range;
            u.cell = cell.index;
            u.lo = lo;
            u.hi = std::min<uint64_t>(lo + shardRuns,
                                      static_cast<uint64_t>(cell.runCap));
            units.push_back(u);
        }
    }
    return units;
}

/**
 * The graceful-degradation result for a cell whose units kept killing
 * workers: every run an EngineFault. fraction(EngineFault) = 1,
 * avm() = NaN, and the AVM aggregations established in the EngineFault
 * taxonomy exclude it — the campaign completes around the poison.
 */
core::CampaignCell
poisonedCell(const CellPlan &plan)
{
    core::CampaignCell cell;
    cell.workload = plan.workload;
    cell.model = plan.model;
    cell.vrFrac = plan.vrFrac;
    cell.result.workload = plan.workload;
    cell.result.model = models::modelKindName(plan.model);
    cell.result.runs = static_cast<uint64_t>(plan.runCap);
    cell.result.engineFault = static_cast<uint64_t>(plan.runCap);
    return cell;
}

/** One spawned tea-worker process. */
struct WorkerProc
{
    pid_t pid = -1;
    bool alive = false;
};

class Supervisor
{
  public:
    Supervisor(WorkQueue &q, const FleetOptions &fopt,
               const std::vector<WorkUnit> &units)
        : q_(q), fopt_(fopt), units_(units)
    {
    }

    ~Supervisor() { terminateAll(); }

    /**
     * Supervise until every unit is done or poisoned. Returns false
     * when the campaign must finish in-process: cooperative
     * cancellation, an unrespawnable worker, or an exhausted restart
     * budget.
     */
    bool superviseToCompletion();

    bool cancelled() const { return cancelled_; }

    /** Per-campaign cooperative stop (GridSpec::stopFlag). */
    void setStop(const std::atomic<bool> *stop) { stop_ = stop; }

  private:
    bool allResolved() const
    {
        for (const WorkUnit &u : units_)
            if (!q_.isDone(u.id) && !q_.isPoisoned(u.id))
                return false;
        return true;
    }

    bool spawn()
    {
        pid_t pid = fork();
        if (pid < 0) {
            warn("fleet: fork failed: %s", std::strerror(errno));
            return false;
        }
        if (pid == 0) {
            execl(fopt_.workerBin.c_str(), "tea-worker",
                  q_.dir().c_str(), static_cast<char *>(nullptr));
            // Exec failure: exit 2 tells the coordinator not to burn
            // the restart budget respawning a broken binary.
            _exit(2);
        }
        workers_.push_back({pid, true});
        // The kernel may hand this child a reaped worker's recycled
        // PID; it must not inherit the "instantly stale" verdict.
        deadPids_.erase(pid);
        return true;
    }

    size_t liveWorkers() const
    {
        size_t n = 0;
        for (const WorkerProc &w : workers_)
            n += w.alive;
        return n;
    }

    /** Collect exited children; respawn abnormal deaths. */
    bool reapWorkers();
    /** Expire silent/dead leases; reissue with backoff or poison. */
    void reapLeases();
    void terminateAll();

    WorkQueue &q_;
    const FleetOptions &fopt_;
    const std::vector<WorkUnit> &units_;
    std::vector<WorkerProc> workers_;
    /** Children that exited — their leases are instantly stale. */
    std::set<int64_t> deadPids_;
    /** unit id -> earliest reissue time (exponential backoff). */
    std::map<uint64_t, int64_t> reissueAt_;
    const std::atomic<bool> *stop_ = nullptr;
    int restartBudget_ = 0;
    bool cancelled_ = false;

  public:
    void setRestartBudget(int n) { restartBudget_ = n; }
    bool spawnInitial(int n)
    {
        for (int i = 0; i < n; ++i)
            if (!spawn())
                return false;
        return true;
    }
};

bool
Supervisor::reapWorkers()
{
    obs::Counter restarts = obs::Registry::global().counter(
        obs::metric::kFleetWorkerRestarts, "",
        "crashed or hung fleet workers restarted");
    // spawn() push_backs into workers_, so respawns are deferred
    // until after the scan — growing the vector mid-loop would
    // invalidate the references being iterated.
    int respawns = 0;
    for (size_t i = 0, n = workers_.size(); i < n; ++i) {
        WorkerProc &w = workers_[i];
        if (!w.alive)
            continue;
        int status = 0;
        pid_t r = waitpid(w.pid, &status, WNOHANG);
        if (r != w.pid)
            continue;
        w.alive = false;
        deadPids_.insert(w.pid);
        bool normal = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
            // The worker could not even read the spool/plan (or exec
            // failed): respawning would loop forever.
            warn("fleet: worker %d unusable (exit 2); finishing "
                 "in-process",
                 static_cast<int>(w.pid));
            return false;
        }
        if (normal || allResolved())
            continue;
        if (restartBudget_-- <= 0) {
            warn("fleet: worker restart budget exhausted; finishing "
                 "in-process");
            return false;
        }
        inform("fleet: worker %d died (%s); restarting",
               static_cast<int>(w.pid),
               WIFSIGNALED(status) ? "signal" : "nonzero exit");
        restarts.inc(1);
        ++respawns;
    }
    while (respawns-- > 0)
        if (!spawn())
            return false;
    return true;
}

void
Supervisor::reapLeases()
{
    obs::Registry &reg = obs::Registry::global();
    obs::Counter expired =
        reg.counter(obs::metric::kFleetLeasesExpired, "",
                    "leases whose holder died or stopped heartbeating");
    obs::Counter reissued =
        reg.counter(obs::metric::kFleetLeasesReissued, "",
                    "expired leases released for re-execution");
    obs::Counter poisoned =
        reg.counter(obs::metric::kFleetUnitsPoisoned, "",
                    "work units quarantined after repeated failures");
    int64_t now = wallClockMs();
    for (const WorkUnit &u : units_) {
        if (q_.isDone(u.id) || q_.isPoisoned(u.id)) {
            reissueAt_.erase(u.id);
            continue;
        }
        auto lease = q_.loadLease(u.id);
        if (!lease) {
            reissueAt_.erase(u.id);
            continue;
        }
        bool stale = deadPids_.count(lease->pid) ||
                     now - lease->beat > fopt_.leaseMs;
        auto pending = reissueAt_.find(u.id);
        if (!stale) {
            // A fresh heartbeat rescinds any scheduled reissue — the
            // holder was slow, not dead.
            if (pending != reissueAt_.end())
                reissueAt_.erase(pending);
            continue;
        }
        if (pending == reissueAt_.end()) {
            int tries = q_.tries(u.id) + 1;
            q_.setTries(u.id, tries);
            expired.inc(1);
            if (tries >= fopt_.maxAttempts) {
                q_.poison(u.id);
                q_.release(u.id);
                poisoned.inc(1);
                warn("fleet: unit u%06llu poisoned after %d failed "
                     "attempt(s); its cell degrades to EngineFault",
                     static_cast<unsigned long long>(u.id), tries);
                continue;
            }
            // Exponential backoff: the lease file itself blocks
            // re-claims until the coordinator releases it below.
            int shift = std::min(tries - 1, 16);
            reissueAt_[u.id] = now + (fopt_.backoffMs << shift);
            // A hung-but-alive holder would keep renewing and rescind
            // this; a dead child cannot. Kill hung children so they
            // stop burning a process slot.
            for (WorkerProc &w : workers_)
                if (w.alive && w.pid == lease->pid &&
                    !deadPids_.count(lease->pid))
                    kill(w.pid, SIGKILL);
        } else if (now >= pending->second) {
            reissueAt_.erase(pending);
            q_.release(u.id);
            reissued.inc(1);
            if (liveWorkers() == 0 && restartBudget_-- > 0)
                spawn();
        }
    }
}

void
Supervisor::terminateAll()
{
    for (WorkerProc &w : workers_) {
        if (!w.alive)
            continue;
        kill(w.pid, SIGTERM);
    }
    for (WorkerProc &w : workers_) {
        if (!w.alive)
            continue;
        // Workers poll the cancel token between runs; give them a
        // moment to flush journals, then force the issue.
        int status = 0;
        for (int i = 0; i < 200; ++i) {
            if (waitpid(w.pid, &status, WNOHANG) == w.pid) {
                w.alive = false;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (w.alive) {
            kill(w.pid, SIGKILL);
            waitpid(w.pid, &status, 0);
            w.alive = false;
        }
    }
}

bool
Supervisor::superviseToCompletion()
{
    const CancelToken &cancel = CancelToken::processWide();
    while (true) {
        if (cancel.cancelled() ||
            (stop_ && stop_->load(std::memory_order_relaxed))) {
            cancelled_ = true;
            terminateAll();
            return false;
        }
        if (allResolved()) {
            terminateAll();
            return true;
        }
        if (!reapWorkers()) {
            cancelled_ = cancel.cancelled();
            terminateAll();
            return false;
        }
        reapLeases();
        if (liveWorkers() == 0 && reissueAt_.empty() &&
            !allResolved()) {
            // Workers drained while leases still pend on nothing —
            // e.g. every remaining unit is poisoned-adjacent debris.
            // Respawn one if the budget allows, else fall back.
            if (restartBudget_-- > 0) {
                if (!spawn())
                    return false;
            } else {
                return false;
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fopt_.pollMs));
    }
}

/**
 * Merge a sharded cell's journals into the canonical cell journal in
 * run-index order — the exact byte order a single-threaded cell run
 * appends in — and leave it ready for replay.
 */
bool
mergeShardJournals(core::Toolflow &tf, const CellPlan &plan,
                   WorkQueue &q, const std::vector<WorkUnit> &units)
{
    const ToolflowOptions &opt = tf.options();
    auto model = core::cellModel(tf, plan);
    std::string identity = core::cellIdentity(opt, plan.workload,
                                              *model, plan.vrFrac);
    std::map<uint64_t, core::ShardJournal::RunRecord> merged;
    for (const WorkUnit &u : units) {
        if (u.kind != WorkUnit::Kind::Range || u.cell != plan.index)
            continue;
        core::ShardJournal shard(q.shardJournalPath(u.id));
        shard.open(identity, /*resume=*/true);
        for (const auto &[idx, rec] : shard.records())
            merged.emplace(idx, rec);
    }
    core::ShardJournal canonical(core::cellJournalPath(
        opt, plan.workload, plan.model, plan.vrFrac));
    canonical.open(identity, /*resume=*/false);
    for (const auto &[idx, rec] : merged)
        canonical.append(idx, rec);
    return true;
}

} // namespace

FleetOptions
fleetOptionsFromEnv()
{
    FleetOptions fopt;
    int64_t v;
    if (envI64("REPRO_FLEET_WORKERS", v))
        fopt.workers = static_cast<int>(std::clamp<int64_t>(v, 0, 256));
    if (const char *bin = std::getenv("REPRO_FLEET_WORKER_BIN"))
        fopt.workerBin = bin;
    if (const char *dir = std::getenv("REPRO_FLEET_DIR"))
        fopt.spoolDir = dir;
    if (envI64("REPRO_FLEET_LEASE_MS", v))
        fopt.leaseMs = std::clamp<int64_t>(v, 100, 3600000);
    if (envI64("REPRO_FLEET_ATTEMPTS", v))
        fopt.maxAttempts =
            static_cast<int>(std::clamp<int64_t>(v, 1, 100));
    if (envI64("REPRO_FLEET_SHARD_RUNS", v))
        fopt.shardRuns =
            static_cast<uint64_t>(std::clamp<int64_t>(v, 0, 1000000));
    if (envI64("REPRO_FLEET_WORKER_THREADS", v))
        fopt.workerThreads =
            static_cast<unsigned>(std::clamp<int64_t>(v, 0, 1024));
    return fopt;
}

EvaluationGrid
runFleetGrid(const ToolflowOptions &opt, const FleetOptions &fopt,
             const GridSpec &spec)
{
    std::string cachePath;
    if (spec.useCache && !opt.cacheDir.empty()) {
        cachePath = core::gridCachePath(opt, spec);
        if (auto grid = core::loadGrid(cachePath)) {
            inform("loaded cached evaluation grid %s",
                   cachePath.c_str());
            return *grid;
        }
    }
    if (fopt.workers <= 0 || fopt.workerBin.empty()) {
        core::Toolflow tf(opt);
        return core::runEvaluationGrid(tf, spec);
    }

    obs::Span fleetSpan("fleet.grid", "fleet");
    std::vector<CellPlan> cells = core::planEvaluationGrid(opt, spec);
    std::vector<WorkUnit> units =
        planUnits(opt, cells, fopt.shardRuns);

    FleetPlan plan;
    plan.opt = opt;
    // Workers always resume: a reissued unit must pick up its
    // predecessor's journal instead of discarding it.
    plan.opt.resume = true;
    if (fopt.workerThreads > 0)
        plan.opt.threads = fopt.workerThreads;
    plan.spec = spec;
    plan.leaseMs = fopt.leaseMs;

    std::string spool = !fopt.spoolDir.empty() ? fopt.spoolDir
                        : !opt.cacheDir.empty()
                            ? opt.cacheDir + "/fleet"
                            : std::string("tea_fleet");
    WorkQueue q(spool);
    bool published = q.publish(plan, units);
    if (!published)
        warn("fleet: cannot publish spool '%s'; running in-process",
             spool.c_str());

    Supervisor sup(q, fopt, units);
    sup.setStop(spec.stopFlag);
    bool farmed = false;
    if (published) {
        int nWorkers = std::min<int>(
            fopt.workers, static_cast<int>(units.size()));
        sup.setRestartBudget(fopt.maxAttempts *
                                 static_cast<int>(units.size()) +
                             nWorkers + 8);
        inform("fleet: %zu unit(s) across %d worker(s), spool %s",
               units.size(), nWorkers, spool.c_str());
        sup.spawnInitial(nWorkers);
        farmed = sup.superviseToCompletion();
    }

    // Merge phase. A coordinator Toolflow (resume on, local threads)
    // replays sharded cells and executes whatever the fleet could not
    // finish — by determinism the in-process remainder is
    // byte-identical to what a worker would have produced.
    ToolflowOptions mergeOpt = opt;
    mergeOpt.resume = true;
    std::unique_ptr<core::Toolflow> mergeTf;
    auto tf = [&]() -> core::Toolflow & {
        if (!mergeTf)
            mergeTf = std::make_unique<core::Toolflow>(mergeOpt);
        return *mergeTf;
    };

    EvaluationGrid grid;
    std::vector<std::string> journalPaths, shardPaths;
    for (const CellPlan &cp : cells) {
        if (spec.stopFlag &&
            spec.stopFlag->load(std::memory_order_relaxed)) {
            grid.interrupted = true;
            break;
        }
        bool poisonedUnit = false, sharded = false;
        bool allUnitsDone = true;
        std::optional<UnitResult> cellDone;
        for (const WorkUnit &u : units) {
            if (u.cell != cp.index)
                continue;
            sharded = u.kind == WorkUnit::Kind::Range;
            if (q.isPoisoned(u.id))
                poisonedUnit = true;
            else if (!q.isDone(u.id))
                allUnitsDone = false;
            else if (!sharded)
                cellDone = q.loadDone(u.id);
            if (sharded)
                shardPaths.push_back(q.shardJournalPath(u.id));
        }
        if (sup.cancelled() && !allUnitsDone && !poisonedUnit) {
            // Cancelled with this cell incomplete: stop here with the
            // completed prefix, exactly like the in-process grid.
            grid.interrupted = true;
            break;
        }
        if (poisonedUnit) {
            grid.cells.push_back(poisonedCell(cp));
            if (spec.onCell)
                spec.onCell(grid.cells.back());
            continue;
        }
        core::CampaignCell cell;
        if (!sharded && cellDone && allUnitsDone) {
            // A worker ran the whole cell (journal + manifest
            // already on disk); only the counters travel back.
            cell.workload = cp.workload;
            cell.model = cp.model;
            cell.vrFrac = cp.vrFrac;
            cell.result = cellDone->result;
            cell.result.workload = cp.workload;
            cell.result.model = models::modelKindName(cp.model);
        } else {
            // Sharded cell, or one the fleet never finished: merge
            // whatever shard records exist (sharded case), then let
            // the canonical cell path replay them and execute any
            // gaps in-process.
            if (sharded)
                mergeShardJournals(tf(), cp, q, units);
            cell = core::runGridCell(tf(), cp, cachePath);
            if (cell.result.interrupted) {
                grid.interrupted = true;
                break;
            }
        }
        if (!opt.cacheDir.empty())
            journalPaths.push_back(core::cellJournalPath(
                opt, cp.workload, cp.model, cp.vrFrac));
        grid.cells.push_back(std::move(cell));
        if (spec.onCell)
            spec.onCell(grid.cells.back());
    }
    (void)farmed;
    if (grid.interrupted) {
        inform("fleet grid interrupted with %zu cell(s) complete; "
               "rerun with REPRO_RESUME=1 to pick up where it stopped",
               grid.cells.size());
        return grid;
    }
    if (!cachePath.empty())
        core::saveGrid(cachePath, grid);
    // Grid durable: journals (canonical and shard) have served their
    // purpose. Poisoned cells never made journals worth keeping here;
    // their spool debris stays for post-mortem.
    for (const auto &p : journalPaths)
        core::ShardJournal(p).remove();
    for (const auto &p : shardPaths)
        core::ShardJournal(p).remove();
    return grid;
}

} // namespace tea::fleet
