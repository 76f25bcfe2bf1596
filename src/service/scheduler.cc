#include "service/scheduler.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::service {

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

obs::Counter
rejectionCounter(ErrorCode code)
{
    std::string label =
        std::string("code=\"") + errorCodeName(code) + "\"";
    return obs::Registry::global().counter(
        obs::metric::kDaemonRejected, label,
        "campaign submissions rejected at admission");
}

} // namespace

std::vector<std::string>
clashKeysFor(const core::ToolflowOptions &opt, const core::GridSpec &spec)
{
    std::vector<std::string> keys{core::gridCachePath(opt, spec)};
    for (const core::CellPlan &cp : core::planEvaluationGrid(opt, spec))
        keys.push_back(
            core::cellJournalPath(opt, cp.workload, cp.model, cp.vrFrac));
    return keys;
}

DaemonOptions
daemonOptionsFromEnv()
{
    DaemonOptions d;
    d.fleet = fleet::fleetOptionsFromEnv();
    if (const char *v = std::getenv("REPRO_DAEMON_SOCKET"))
        d.socketPath = v;
    if (const char *v = std::getenv("REPRO_DAEMON_SPOOL"))
        d.spoolRoot = v;
    int64_t n;
    if (envI64("REPRO_DAEMON_TCP_PORT", n))
        d.tcpPort = static_cast<int>(std::clamp<int64_t>(n, -1, 65535));
    if (envI64("REPRO_DAEMON_QUEUE", n))
        d.queueCap = static_cast<int>(std::clamp<int64_t>(n, 1, 4096));
    if (envI64("REPRO_DAEMON_CONCURRENCY", n))
        d.concurrency =
            static_cast<int>(std::clamp<int64_t>(n, 1, 64));
    if (envI64("REPRO_DAEMON_CLIENT_INFLIGHT", n))
        d.clientInflight =
            static_cast<int>(std::clamp<int64_t>(n, 1, 4096));
    if (envI64("REPRO_DAEMON_RETRY_MS", n))
        d.retryMs = std::clamp<int64_t>(n, 1, 3600000);
    return d;
}

const char *
campaignStateName(CampaignState s)
{
    switch (s) {
      case CampaignState::Queued: return "queued";
      case CampaignState::Running: return "running";
      case CampaignState::Done: return "done";
      case CampaignState::Cancelled: return "cancelled";
      case CampaignState::Failed: return "failed";
    }
    return "unknown";
}

Scheduler::Scheduler(DaemonOptions opt) : opt_(std::move(opt))
{
    if (opt_.cacheDir.empty())
        opt_.cacheDir = core::optionsFromEnv().cacheDir;
    if (opt_.spoolRoot.empty())
        opt_.spoolRoot = !opt_.cacheDir.empty()
                             ? opt_.cacheDir + "/daemon-spool"
                             : std::string("tea_daemon_spool");
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(1);
    for (int i = 0; i < opt_.concurrency; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

Scheduler::~Scheduler()
{
    stop();
}

void
Scheduler::updateGauges()
{
    obs::Registry &reg = obs::Registry::global();
    reg.gauge(obs::metric::kDaemonQueueDepth, "",
              "campaigns admitted but not yet executing")
        .set(static_cast<int64_t>(queue_.size()));
    reg.gauge(obs::metric::kDaemonActive, "",
              "campaigns currently executing")
        .set(static_cast<int64_t>(running_));
}

Scheduler::SubmitResult
Scheduler::submit(const std::string &planBytes,
                  const std::string &client)
{
    SubmitResult r;
    auto plan = fleet::FleetPlan::parse(planBytes);
    if (!plan) {
        r.rej = {ErrorCode::BadRequest, 0, "unparseable fleet plan"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    // One shared characterization cache across every campaign — and,
    // because the override lands *before* dedup keying, two clients
    // differing only in their local cache paths still deduplicate.
    plan->opt.cacheDir = opt_.cacheDir;
    std::string canon = plan->serialize();

    std::lock_guard<std::mutex> lock(mu_);
    obs::Registry &reg = obs::Registry::global();
    if (stopping_ || draining_) {
        r.rej = {ErrorCode::ShuttingDown, 0, "daemon is draining"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    if (auto it = activeByPlan_.find(canon);
        it != activeByPlan_.end()) {
        Campaign &c = *campaigns_.at(it->second);
        reg.counter(obs::metric::kDaemonDeduped, "",
                    "submissions attached to an identical active "
                    "campaign")
            .inc(1);
        r.accepted = true;
        r.sub = {c.id, true, c.cellsTotal};
        return r;
    }
    int owned = 0;
    for (const auto &[id, c] : campaigns_)
        if (c->client == client &&
            (c->state == CampaignState::Queued ||
             c->state == CampaignState::Running))
            ++owned;
    if (owned >= opt_.clientInflight) {
        r.rej = {ErrorCode::InflightLimit, opt_.retryMs,
                 "client in-flight campaign cap reached"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    if (queue_.size() >= static_cast<size_t>(opt_.queueCap)) {
        r.rej = {ErrorCode::RetryAfter, opt_.retryMs,
                 "admission queue full"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }

    auto c = std::make_unique<Campaign>();
    c->id = nextId_++;
    c->planBytes = canon;
    c->plan = std::move(*plan);
    c->client = client;
    c->clashKeys = clashKeysFor(c->plan.opt, c->plan.spec);
    c->cellsTotal =
        core::planEvaluationGrid(c->plan.opt, c->plan.spec).size();
    c->submitMs = wallClockMs();
    r.accepted = true;
    r.sub = {c->id, false, c->cellsTotal};
    activeByPlan_[canon] = c->id;
    queue_.push_back(c->id);
    campaigns_.emplace(c->id, std::move(c));
    reg.counter(obs::metric::kDaemonSubmitted, "",
                "campaigns admitted to the scheduler")
        .inc(1);
    updateGauges();
    cv_.notify_all();
    return r;
}

std::optional<Scheduler::Progress>
Scheduler::status(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return std::nullopt;
    const Campaign &c = *it->second;
    Progress p;
    p.state = c.state;
    p.cellsDone = c.cells.size();
    p.cellsTotal = c.cellsTotal;
    p.interrupted = c.interrupted;
    return p;
}

bool
Scheduler::next(uint64_t id, uint64_t cursor, int timeoutMs, Event &ev)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return false;
    Campaign &c = *it->second;
    auto ready = [&] {
        return cursor < c.cells.size() ||
               (c.state != CampaignState::Queued &&
                c.state != CampaignState::Running);
    };
    if (timeoutMs < 0)
        cv_.wait(lock, ready);
    else
        cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                     ready);
    ev = Event{};
    ev.progress.state = c.state;
    ev.progress.cellsDone = c.cells.size();
    ev.progress.cellsTotal = c.cellsTotal;
    ev.progress.interrupted = c.interrupted;
    if (cursor < c.cells.size()) {
        ev.haveCell = true;
        ev.cell = c.cells[cursor];
        return true;
    }
    ev.terminal = c.state != CampaignState::Queued &&
                  c.state != CampaignState::Running;
    return true;
}

bool
Scheduler::cancel(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return false;
    Campaign &c = *it->second;
    switch (c.state) {
      case CampaignState::Queued: {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                     queue_.end());
        c.state = CampaignState::Cancelled;
        activeByPlan_.erase(c.planBytes);
        obs::Registry::global()
            .counter(obs::metric::kDaemonCancelled, "",
                     "campaigns cancelled by request")
            .inc(1);
        updateGauges();
        cv_.notify_all();
        break;
      }
      case CampaignState::Running:
        // Raised flag only: the executor winds the campaign down at
        // its next cell boundary and records the terminal state.
        c.stop.store(true, std::memory_order_relaxed);
        break;
      default:
        break; // already terminal — cancel is idempotent
    }
    return true;
}

void
Scheduler::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
        return;
    draining_ = true;
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(2);
    cv_.notify_all();
}

bool
Scheduler::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

void
Scheduler::awaitIdle()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void
Scheduler::setPaused(bool paused)
{
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
    cv_.notify_all();
}

void
Scheduler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        paused_ = false;
        // Queued campaigns will never run now; running ones get the
        // cooperative stop and finish as Cancelled.
        for (uint64_t id : queue_) {
            Campaign &c = *campaigns_.at(id);
            c.state = CampaignState::Cancelled;
            activeByPlan_.erase(c.planBytes);
        }
        queue_.clear();
        for (auto &[id, c] : campaigns_)
            if (c->state == CampaignState::Running)
                c->stop.store(true, std::memory_order_relaxed);
        updateGauges();
        cv_.notify_all();
    }
    for (std::thread &t : executors_)
        if (t.joinable())
            t.join();
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(0);
}

std::deque<uint64_t>::iterator
Scheduler::nextRunnable()
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const Campaign &c = *campaigns_.at(*it);
        if (std::none_of(c.clashKeys.begin(), c.clashKeys.end(),
                         [&](const std::string &k) {
                             return runningClash_.count(k) != 0;
                         }))
            return it;
    }
    return queue_.end();
}

void
Scheduler::finish(Campaign &c, CampaignState state)
{
    std::lock_guard<std::mutex> lock(mu_);
    c.state = state;
    for (const std::string &k : c.clashKeys)
        runningClash_.erase(k);
    --running_;
    auto it = activeByPlan_.find(c.planBytes);
    if (it != activeByPlan_.end() && it->second == c.id)
        activeByPlan_.erase(it);
    obs::Registry &reg = obs::Registry::global();
    if (state == CampaignState::Done)
        reg.counter(obs::metric::kDaemonCompleted, "",
                    "campaigns that ran to completion")
            .inc(1);
    else if (state == CampaignState::Cancelled)
        reg.counter(obs::metric::kDaemonCancelled, "",
                    "campaigns cancelled by request")
            .inc(1);
    reg.histogram(obs::metric::kDaemonCampaignMs,
                  obs::latencyBucketsMs(), "",
                  "campaign wall time, admission to terminal state")
        .observe(static_cast<double>(wallClockMs() - c.submitMs));
    updateGauges();
    cv_.notify_all();
}

void
Scheduler::execute(Campaign &c)
{
    core::GridSpec spec = c.plan.spec;
    spec.stopFlag = &c.stop;
    spec.onCell = [this, &c](const core::CampaignCell &cell) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            c.cells.push_back(cell);
        }
        cv_.notify_all();
    };
    fleet::FleetOptions fopt = opt_.fleet;
    // Every campaign gets its own spool namespace under the shared
    // root; byte-identical plans map to the same namespace, so a
    // resubmission of a crashed campaign resumes its spool.
    fopt.spoolDir = opt_.spoolRoot + "/" + fleet::spoolNamespace(c.plan);

    core::EvaluationGrid grid =
        fleet::runFleetGrid(c.plan.opt, fopt, spec);

    bool stopped = c.stop.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mu_);
        // The cached-grid fast path returns without firing onCell:
        // stream the cells it loaded.
        for (size_t i = c.cells.size(); i < grid.cells.size(); ++i)
            c.cells.push_back(grid.cells[i]);
        c.interrupted = grid.interrupted;
    }
    cv_.notify_all();
    finish(c, grid.interrupted
                  ? (stopped ? CampaignState::Cancelled
                             : CampaignState::Failed)
                  : CampaignState::Done);
}

void
Scheduler::executorLoop()
{
    obs::Registry &reg = obs::Registry::global();
    for (;;) {
        Campaign *c = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] {
                return stopping_ ||
                       (!paused_ && nextRunnable() != queue_.end());
            });
            if (stopping_)
                return;
            auto it = nextRunnable();
            c = campaigns_.at(*it).get();
            queue_.erase(it);
            c->state = CampaignState::Running;
            c->startMs = wallClockMs();
            runningClash_.insert(c->clashKeys.begin(),
                                 c->clashKeys.end());
            ++running_;
            reg.histogram(obs::metric::kDaemonQueueWaitMs,
                          obs::latencyBucketsMs(), "",
                          "time campaigns wait in the admission queue")
                .observe(static_cast<double>(c->startMs -
                                             c->submitMs));
            updateGauges();
        }
        execute(*c);
    }
}

} // namespace tea::service
