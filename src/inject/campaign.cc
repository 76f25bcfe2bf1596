#include "inject/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/func_sim.hh"
#include "stats/planner.hh"
#include "util/logging.hh"

namespace tea::inject {

using models::ErrorModel;
using models::ProgramProfile;
using sim::OooSim;

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked: return "Masked";
      case Outcome::SDC: return "SDC";
      case Outcome::Crash: return "Crash";
      case Outcome::Timeout: return "Timeout";
      case Outcome::EngineFault: return "EngineFault";
    }
    return "?";
}

const char *
mcClassName(McClass c)
{
    switch (c) {
      case McClass::None: return "None";
      case McClass::Masked: return "Masked";
      case McClass::CoherenceMasked: return "CoherenceMasked";
      case McClass::SdcSameCore: return "SdcSameCore";
      case McClass::SdcCrossCore: return "SdcCrossCore";
      case McClass::Crash: return "Crash";
      case McClass::SyncCrash: return "SyncCrash";
      case McClass::Deadlock: return "Deadlock";
      case McClass::Timeout: return "Timeout";
    }
    return "?";
}

double
likelihoodWeight(double logWeight)
{
    // +-700 keeps exp() comfortably inside double range (|log
    // DBL_MAX| ~ 709.8). NaN input degrades to weight 1 — a damaged
    // weight must not poison the whole campaign's sums.
    if (std::isnan(logWeight))
        return 1.0;
    if (logWeight > 700.0)
        logWeight = 700.0;
    else if (logWeight < -700.0)
        logWeight = -700.0;
    return std::exp(logWeight);
}

double
CampaignResult::errorRatio() const
{
    if (committedInstructions == 0)
        return 0.0;
    return static_cast<double>(injectedErrors) /
           static_cast<double>(committedInstructions);
}

double
CampaignResult::avm() const
{
    // No classified run means the AVM is unknown, not zero: a cell
    // whose every run EngineFaulted must not read as perfectly safe.
    if (classified() == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(sdc + crash + timeout) /
           static_cast<double>(classified());
}

double
CampaignResult::fraction(Outcome o) const
{
    if (o == Outcome::EngineFault)
        return runs ? static_cast<double>(engineFault) /
                          static_cast<double>(runs)
                    : std::numeric_limits<double>::quiet_NaN();
    if (classified() == 0)
        return std::numeric_limits<double>::quiet_NaN();
    uint64_t n = 0;
    switch (o) {
      case Outcome::Masked: n = masked; break;
      case Outcome::SDC: n = sdc; break;
      case Outcome::Crash: n = crash; break;
      case Outcome::Timeout: n = timeout; break;
      case Outcome::EngineFault: break; // handled above
    }
    return static_cast<double>(n) / static_cast<double>(classified());
}

stats::Interval
CampaignResult::avmInterval(double conf) const
{
    return stats::wilson(sdc + crash + timeout, classified(), conf);
}

double
CampaignResult::avmWeighted() const
{
    if (!(weightSum > 0.0))
        return std::numeric_limits<double>::quiet_NaN();
    return weightUnsafe / weightSum;
}

double
CampaignResult::ess() const
{
    if (!(weightSqSum > 0.0))
        return 0.0;
    return weightSum * weightSum / weightSqSum;
}

stats::Interval
CampaignResult::avmWeightedInterval(double conf) const
{
    if (!(weightSqSum > 0.0))
        return {0.0, 1.0};
    // Unit weights (proposal degraded to the target measure): take
    // the integer path so the interval is bit-identical to the plain
    // campaign's.
    double cls = static_cast<double>(classified());
    double unsafe = static_cast<double>(sdc + crash + timeout);
    if (weightSum == cls && weightSqSum == cls &&
        weightUnsafe == unsafe && weightUnsafeSqSum == unsafe)
        return avmInterval(conf);
    return stats::selfNormalizedWilson(weightUnsafe, weightSum,
                                       weightSqSum,
                                       weightUnsafeSqSum, conf);
}

stats::Interval
CampaignResult::fractionInterval(Outcome o, double conf) const
{
    if (o == Outcome::EngineFault)
        return stats::wilson(engineFault, runs, conf);
    uint64_t n = 0;
    switch (o) {
      case Outcome::Masked: n = masked; break;
      case Outcome::SDC: n = sdc; break;
      case Outcome::Crash: n = crash; break;
      case Outcome::Timeout: n = timeout; break;
      case Outcome::EngineFault: break; // handled above
    }
    return stats::wilson(n, classified(), conf);
}

InjectionCampaign::InjectionCampaign(Unprepared,
                                     workloads::Workload workload,
                                     sim::OooConfig cfg,
                                     mc::McConfig mcCfg)
    : workload_(std::move(workload)), cfg_(cfg), mcCfg_(mcCfg)
{
    mcCfg_.core = cfg_;
}

InjectionCampaign::InjectionCampaign(workloads::Workload workload,
                                     sim::OooConfig cfg,
                                     mc::McConfig mcCfg)
    : InjectionCampaign(Unprepared{}, std::move(workload), cfg, mcCfg)
{
    Error err = prepare();
    fatal_if(!err.ok(), "%s", err.describe().c_str());
}

Expected<std::unique_ptr<InjectionCampaign>>
InjectionCampaign::create(workloads::Workload workload,
                          sim::OooConfig cfg, mc::McConfig mcCfg)
{
    std::unique_ptr<InjectionCampaign> c(new InjectionCampaign(
        Unprepared{}, std::move(workload), cfg, mcCfg));
    Error err = c->prepare();
    if (!err.ok())
        return err;
    return c;
}

namespace {

/**
 * Simulator work counters, bumped once per golden or injected run
 * (never per cycle): `engine` is "ooo" or "mc".
 */
void
countSimWork(const char *engine, uint64_t committed, uint64_t cycles)
{
    obs::Registry &reg = obs::Registry::global();
    std::string label = std::string("engine=\"") + engine + "\"";
    reg.counter(obs::metric::kSimInstructions, label,
                "instructions committed by cycle-level simulator runs")
        .inc(committed);
    reg.counter(obs::metric::kSimCycles, label,
                "cycles simulated by cycle-level simulator runs")
        .inc(cycles);
}

} // namespace

Error
InjectionCampaign::prepare()
{
    try {
        // Per-core profiles from one functional run: model planning
        // addresses "the n-th eligible op on core k", so each core
        // needs its own dynamic op counts. A single-core workload is
        // one core. The functional machine is freed before the
        // cycle-level one is built, so one preparation holds one
        // simulator at a time.
        {
            sim::FuncSim::Config fcfg;
            fcfg.cores = workload_.threaded ? mcCfg_.cores : 1;
            sim::FuncSim fsim(workload_.program, fcfg);
            auto fres = fsim.run();
            if (fres.status != sim::FuncSim::Status::Halted)
                return makeError(
                    ErrorCode::GoldenRunFailed,
                    "workload '%s' golden run did not halt (%s)",
                    workload_.name.c_str(), sim::trapName(fres.trap));
            coreProfiles_.clear();
            profile_ = {};
            for (unsigned k = 0; k < fsim.cores(); ++k) {
                coreProfiles_.push_back(
                    ProgramProfile::fromFuncSim(fsim, k));
                profile_ += coreProfiles_.back();
            }
        }

        // ...and the timing/output reference from a golden cycle-level
        // run: McSim's shared L2 makes even one of its cores a
        // different machine from OooSim, so the two stay apart.
        bool halted = false;
        if (workload_.threaded) {
            mc::McSim msim(workload_.program, mcCfg_);
            auto mres = msim.run(~0ULL);
            countSimWork("mc", mres.committed, mres.cycles);
            halted = mres.status == mc::McSim::Status::Halted;
            goldenCycles_ = mres.cycles;
            goldenCommitted_ = mres.committed;
            goldenSignature_ =
                outputSignature(msim.memory(), msim.console());
        } else {
            OooSim osim(workload_.program, cfg_);
            auto ores = osim.run(~0ULL);
            countSimWork("ooo", ores.committed, ores.cycles);
            halted = ores.status == OooSim::Status::Halted;
            goldenCycles_ = ores.cycles;
            goldenCommitted_ = ores.committed;
            goldenSignature_ =
                outputSignature(osim.memory(), osim.console());
        }
        if (!halted)
            return makeError(ErrorCode::GoldenRunFailed,
                             "workload '%s' golden %s run did not halt",
                             workload_.name.c_str(),
                             workload_.threaded ? "McSim" : "OoO");
    } catch (const std::exception &e) {
        return makeError(ErrorCode::EngineFault,
                         "workload '%s' golden preparation faulted: %s",
                         workload_.name.c_str(), e.what());
    }
    return {};
}

std::vector<uint8_t>
InjectionCampaign::outputSignature(const sim::Memory &mem,
                                   const sim::Console &console) const
{
    std::vector<uint8_t> sig;
    for (const auto &sym : workload_.outputSymbols) {
        auto block = mem.readBlock(workload_.program.symbol(sym),
                                   workload_.program.symbolSize(sym));
        sig.insert(sig.end(), block.begin(), block.end());
    }
    size_t off = sig.size();
    sig.resize(off + console.size() * 8);
    std::memcpy(sig.data() + off, console.data(), console.size() * 8);
    return sig;
}

std::vector<sim::InjectionPlan>
InjectionCampaign::planRun(const ErrorModel &model, Rng &rng,
                           double &logWeight) const
{
    // Plan per core, in core-major order on the one run substream, so
    // the whole plan is a deterministic function of the run index.
    // Each event is stamped with its core: "the n-th eligible op on
    // core k". The run's weight is the product (log-sum) of the
    // per-core plan weights.
    logWeight = 0.0;
    std::vector<sim::InjectionPlan> plans;
    plans.reserve(coreProfiles_.size());
    for (unsigned k = 0; k < coreProfiles_.size(); ++k) {
        double lw = 0.0;
        auto events = model.planWeighted(coreProfiles_[k], rng, lw);
        for (auto &e : events)
            e.core = k;
        logWeight += lw;
        plans.emplace_back(events);
    }
    return plans;
}

InjectionCampaign::RunRecord
InjectionCampaign::executeOneMc(std::vector<sim::InjectionPlan> plans,
                                double logWeight,
                                const Watchdog *watchdog) const
{
    mc::McSim sim(workload_.program, mcCfg_, std::move(plans));
    auto res = sim.run(2 * goldenCycles_, watchdog);
    countSimWork("mc", res.committed, res.cycles);

    RunRecord rec;
    rec.logWeight = logWeight;
    rec.injected = res.injectionsApplied;
    rec.committed = res.committed;
    rec.wrongPath = res.injectionsOnWrongPath;
    switch (res.status) {
      case mc::McSim::Status::Crashed:
        rec.outcome = Outcome::Crash;
        rec.mcClass = res.trap == sim::TrapKind::SyncFault
                          ? McClass::SyncCrash
                          : McClass::Crash;
        break;
      case mc::McSim::Status::Deadlock:
        // No commit on any core for the bounded-progress window: the
        // run would never finish. The base taxonomy calls that a
        // Timeout; the refinement keeps it countable on its own.
        rec.outcome = Outcome::Timeout;
        rec.mcClass = McClass::Deadlock;
        break;
      case mc::McSim::Status::CycleLimit:
        rec.outcome = Outcome::Timeout;
        rec.mcClass = McClass::Timeout;
        break;
      case mc::McSim::Status::Interrupted:
        rec.outcome = Outcome::EngineFault;
        rec.fault = res.stop == Watchdog::Stop::Deadline
                        ? ErrorCode::RunDeadline
                        : ErrorCode::Cancelled;
        break;
      case mc::McSim::Status::Halted: {
        auto sig = outputSignature(sim.memory(), sim.console());
        if (sig == goldenSignature_) {
            rec.outcome = Outcome::Masked;
            // Coherence-masked: an injection landed AND some clean
            // committed store overwrote a tainted word — the error
            // demonstrably died in memory rather than never mattering.
            rec.mcClass = (res.injectionsApplied > 0 &&
                           res.coh.overwriteMasks > 0)
                              ? McClass::CoherenceMasked
                              : McClass::Masked;
        } else {
            rec.outcome = Outcome::SDC;
            rec.mcClass = res.crossTaintedLoads > 0
                              ? McClass::SdcCrossCore
                              : McClass::SdcSameCore;
        }
        break;
      }
    }

    // Coherence/synchronization observability (never aggregated into
    // campaign statistics — the journal stays the source of truth).
    obs::Registry &reg = obs::Registry::global();
    reg.counter(obs::metric::kMcInvalidations, "",
                "sharer lines invalidated by committed stores")
        .inc(res.coh.invalidations);
    reg.counter(obs::metric::kMcC2cTransfers, "",
                "dirty lines forwarded cache-to-cache")
        .inc(res.coh.c2cTransfers);
    reg.counter(obs::metric::kMcL2Misses, "",
                "shared-L2 misses across all cores")
        .inc(res.coh.l2Misses);
    reg.counter(obs::metric::kMcCrossReads, "",
                "committed loads of another core's tainted data")
        .inc(res.crossTaintedLoads);
    reg.counter(obs::metric::kMcOverwriteMasked, "",
                "clean committed stores overwriting tainted words")
        .inc(res.coh.overwriteMasks);
    reg.counter(obs::metric::kMcSpawns, "",
                "cores started via the spawn syscall")
        .inc(res.coh.spawns);
    reg.counter(obs::metric::kMcBarriers, "",
                "completed barrier episodes")
        .inc(res.coh.barriers);
    return rec;
}

InjectionCampaign::RunRecord
InjectionCampaign::executeOne(const ErrorModel &model, Rng &rng,
                              const Watchdog *watchdog) const
{
    double logWeight = 0.0;
    std::vector<sim::InjectionPlan> plans = planRun(model, rng, logWeight);
    if (std::all_of(plans.begin(), plans.end(),
                    [](const sim::InjectionPlan &p) { return p.empty(); })) {
        // Nothing to inject: the simulators are deterministic, so this
        // run is the golden run and its record is known without
        // simulating it. The plan's weight still counts.
        obs::Registry::global()
            .counter(obs::metric::kInjectGoldenRuns, "",
                     "injection runs answered from the golden run "
                     "without simulation")
            .inc(1);
        RunRecord rec;
        rec.logWeight = logWeight;
        rec.committed = goldenCommitted_;
        rec.mcClass = workload_.threaded ? McClass::Masked : McClass::None;
        return rec;
    }
    if (workload_.threaded)
        return executeOneMc(std::move(plans), logWeight, watchdog);
    OooSim sim(workload_.program, cfg_, std::move(plans[0]));
    auto res = sim.run(2 * goldenCycles_, watchdog);
    countSimWork("ooo", res.committed, res.cycles);
    RunRecord rec;
    rec.logWeight = logWeight;
    rec.injected = res.injectionsApplied;
    rec.committed = res.committed;
    rec.wrongPath = res.injectionsOnWrongPath;
    switch (res.status) {
      case OooSim::Status::Crashed:
        rec.outcome = Outcome::Crash;
        break;
      case OooSim::Status::CycleLimit:
        rec.outcome = Outcome::Timeout;
        break;
      case OooSim::Status::Interrupted:
        // Infrastructure cut the run off: a deadline overrun is an
        // EngineFault record; a cancellation means the run never
        // finished and must not be recorded at all.
        rec.outcome = Outcome::EngineFault;
        rec.fault = res.stop == Watchdog::Stop::Deadline
                        ? ErrorCode::RunDeadline
                        : ErrorCode::Cancelled;
        break;
      case OooSim::Status::Halted: {
        auto sig = outputSignature(sim.memory(), sim.console());
        rec.outcome = (sig == goldenSignature_) ? Outcome::Masked
                                                : Outcome::SDC;
        break;
      }
    }
    return rec;
}

InjectionCampaign::RunRecord
InjectionCampaign::executeOneContained(const ErrorModel &model,
                                       const Rng &base, uint64_t run,
                                       const RunOptions &opts) const
{
    int maxAttempts = std::max(1, opts.maxAttempts);
    std::string lastFault;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        // Attempt 0 draws from the canonical fork(run) substream so
        // contained and plain executions are bit-identical; retries
        // re-fork deterministically so a poisoned draw is not simply
        // replayed.
        Rng rng = attempt == 0 ? base.fork(run)
                               : base.fork(run).fork(attempt);
        Watchdog watchdog(opts.cancel, opts.runDeadlineMs);
        try {
            RunRecord rec = executeOne(model, rng, &watchdog);
            rec.attempts = attempt + 1;
            // Deadline cutoffs are deterministic-in-kind (the run is
            // pathologically slow); retrying would spend another full
            // deadline for the same verdict.
            return rec;
        } catch (const std::exception &e) {
            lastFault = e.what();
        } catch (...) {
            lastFault = "non-standard exception";
        }
        if (opts.cancel && opts.cancel->cancelled())
            break;
    }
    RunRecord rec;
    rec.outcome = Outcome::EngineFault;
    rec.attempts = maxAttempts;
    if (opts.cancel && opts.cancel->cancelled()) {
        rec.fault = ErrorCode::Cancelled;
    } else {
        rec.fault = ErrorCode::EngineFault;
        warn("run %llu of '%s' faulted %d time(s); recording "
             "EngineFault (last: %s)",
             static_cast<unsigned long long>(run),
             workload_.name.c_str(), maxAttempts, lastFault.c_str());
    }
    return rec;
}

Outcome
InjectionCampaign::runOne(const ErrorModel &model, Rng &rng,
                          uint64_t *injectedOut) const
{
    RunRecord rec = executeOne(model, rng);
    if (injectedOut)
        *injectedOut = rec.injected;
    return rec.outcome;
}

CampaignResult
InjectionCampaign::run(const ErrorModel &model, int runs, Rng &rng,
                       ThreadPool *pool) const
{
    RunOptions opts;
    opts.pool = pool;
    return run(model, runs, rng, opts);
}

namespace {

/** Registry handles every dispatched run reports to. */
struct RunMetrics
{
    obs::Counter replays;
    obs::Counter cancelled;
    obs::Histogram runMs;
};

RunMetrics
runMetrics()
{
    // Observation only: counters/histograms never feed back into run
    // scheduling, RNG streams, or the ordered aggregation.
    obs::Registry &reg = obs::Registry::global();
    return RunMetrics{
        reg.counter(
            obs::metric::kInjectReplays, "",
            "injection runs satisfied from a journal instead of simulated"),
        reg.counter(obs::metric::kWatchdogCancelled, "",
                    "runs abandoned because a cancellation was requested"),
        reg.histogram(obs::metric::kInjectRunMs, obs::latencyBucketsMs(),
                      "", "wall time of one contained injection run"),
    };
}

enum class RunFate
{
    Skipped,  ///< cancelled before or during execution
    Replayed, ///< filled from the journal, nothing executed
    Executed, ///< freshly executed and reported to onComplete
};

/**
 * The one per-run body of run() and runRange(): replay run i, or
 * execute it contained under an `inject.run` span, time it and report
 * it. `rec` receives the replayed or executed record.
 */
RunFate
runIndexed(const InjectionCampaign &campaign, const ErrorModel &model,
           const Rng &base, uint64_t i,
           const InjectionCampaign::RunOptions &opts,
           const RunMetrics &metrics, InjectionCampaign::RunRecord &rec)
{
    if (opts.cancel && opts.cancel->cancelled())
        return RunFate::Skipped;
    if (opts.replay && opts.replay(i, rec)) {
        metrics.replays.inc(1);
        return RunFate::Replayed;
    }
    obs::Span runSpan("inject.run", "inject", static_cast<int64_t>(i));
    auto t0 = std::chrono::steady_clock::now();
    rec = campaign.executeOneContained(model, base, i, opts);
    metrics.runMs.observe(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    if (rec.fault == ErrorCode::Cancelled) {
        metrics.cancelled.inc(1);
        return RunFate::Skipped; // shutdown mid-run: leave it for the resume
    }
    if (opts.onComplete)
        opts.onComplete(i, rec);
    return RunFate::Executed;
}

} // namespace

uint64_t
InjectionCampaign::runRange(const ErrorModel &model, uint64_t lo,
                            uint64_t hi, Rng &rng,
                            const RunOptions &opts) const
{
    ThreadPool &tp = opts.pool ? *opts.pool : ThreadPool::global();
    // The same split run() performs, so a range worker's base stream
    // matches the unsplit cell's and fork(i) lands on identical draws.
    Rng base = rng.split();
    if (hi <= lo)
        return 0;
    std::atomic<uint64_t> executed{0};
    const RunMetrics metrics = runMetrics();
    obs::Span span("inject.range", "inject",
                   static_cast<int64_t>(hi - lo));
    tp.parallelFor(lo, hi, [&](uint64_t i, unsigned) {
        RunRecord rec;
        if (runIndexed(*this, model, base, i, opts, metrics, rec) ==
            RunFate::Executed)
            executed.fetch_add(1, std::memory_order_relaxed);
    });
    return executed.load();
}

CampaignResult
InjectionCampaign::run(const ErrorModel &model, int runs, Rng &rng,
                       const RunOptions &opts) const
{
    ThreadPool &tp = opts.pool ? *opts.pool : ThreadPool::global();
    Rng base = rng.split();
    size_t n = runs > 0 ? static_cast<size_t>(runs) : 0;
    std::vector<RunRecord> records(n);
    std::vector<uint8_t> done(n, 0);

    obs::Registry &reg = obs::Registry::global();
    const RunMetrics metrics = runMetrics();
    obs::Span campaignSpan("inject.campaign", "inject",
                           static_cast<int64_t>(n));
    auto executeRange = [&](uint64_t begin, uint64_t end) {
        tp.parallelFor(begin, end, [&](uint64_t i, unsigned) {
            if (runIndexed(*this, model, base, i, opts, metrics,
                           records[i]) != RunFate::Skipped)
                done[i] = 1;
        });
    };

    // Runs considered by the aggregation: all of them on the fixed
    // path, the executed prefix on the adaptive path.
    size_t executed = n;
    if (opts.ciTarget > 0.0 && n > 0) {
        // Adaptive stopping. The round loop only ever *truncates* the
        // fixed campaign: run i is executed exactly as the fixed path
        // would execute it, rounds are cut at barriers, and the
        // stop/continue decision is a pure function of the classified
        // counts — so results are bit-identical at every thread count
        // and a bit-exact prefix of the fixed-N campaign.
        stats::PlannerConfig pcfg;
        pcfg.ciTarget = opts.ciTarget;
        pcfg.ciConf = opts.ciConf;
        pcfg.maxPerStratum = n;
        pcfg.unit = 1;
        pcfg.initialRound = opts.initialRound ? opts.initialRound : 64;
        stats::AdaptivePlanner planner(pcfg, 1);
        uint64_t next = 0;
        bool cancelled = false;
        while (!planner.done() && next < n && !cancelled) {
            uint64_t end =
                std::min<uint64_t>(n, next + planner.planRound()[0]);
            executeRange(next, end);
            // Fold the round: EngineFaults carry no AVM evidence and
            // unfinished (cancelled) runs must not count at all.
            uint64_t events = 0, trials = 0;
            double wEvents = 0.0, wSum = 0.0, wSq = 0.0;
            double wEventsSq = 0.0;
            for (uint64_t i = next; i < end; ++i) {
                if (!done[i]) {
                    cancelled = true;
                    continue;
                }
                const RunRecord &rec = records[i];
                if (rec.outcome == Outcome::EngineFault)
                    continue;
                ++trials;
                double w = likelihoodWeight(rec.logWeight);
                wSum += w;
                wSq += w * w;
                if (rec.outcome != Outcome::Masked) {
                    ++events;
                    wEvents += w;
                    wEventsSq += w * w;
                }
            }
            // A reweighted proposal stops on the *weighted* interval
            // (the variance-matched self-normalized one); plain
            // campaigns keep the integer path bit-for-bit.
            if (model.weightedProposal())
                planner.recordWeighted(0, wEvents, wSum, wSq,
                                       wEventsSq, events, trials);
            else
                planner.record(0, events, trials);
            next = end;
        }
        executed = next;
        reg.counter(obs::metric::kStatsRounds, "",
                    "adaptive sampling rounds planned")
            .inc(planner.rounds());
        reg.counter(obs::metric::kStatsEarlyStops, "",
                    "strata stopped early by interval convergence")
            .inc(planner.earlyStops());
        reg.counter(obs::metric::kStatsAllocatedTrials, "",
                    "trials allocated by adaptive planners")
            .inc(planner.totalAllocated());
        reg.counter(obs::metric::kStatsTrialsSaved, "",
                    "trials avoided versus the fixed-size campaign")
            .inc(n > executed ? n - executed : 0);
    } else {
        executeRange(0, n);
    }

    CampaignResult out;
    out.workload = workload_.name;
    out.model = model.describe();
    out.weightedModel = model.weightedProposal();
    for (size_t i = 0; i < executed; ++i) {
        if (!done[i]) {
            out.interrupted = true;
            continue;
        }
        const RunRecord &rec = records[i];
        ++out.runs;
        out.retries += rec.attempts - 1;
        if (rec.fault == ErrorCode::RunDeadline)
            reg.counter(obs::metric::kWatchdogDeadline, "",
                        "runs cut off by the per-run deadline")
                .inc(1);
        if (rec.outcome == Outcome::EngineFault) {
            // Infrastructure failure: excluded from AVM (weighted and
            // unweighted) and from the injection/commit accounting
            // (its counters are partial).
            ++out.engineFault;
            continue;
        }
        out.injectedErrors += rec.injected;
        out.committedInstructions += rec.committed;
        out.wrongPathInjections += rec.wrongPath;
        double w = likelihoodWeight(rec.logWeight);
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
          case Outcome::EngineFault: break; // handled above
        }
        switch (rec.mcClass) {
          case McClass::CoherenceMasked: ++out.mcCoherenceMasked; break;
          case McClass::SdcSameCore: ++out.mcSdcSameCore; break;
          case McClass::SdcCrossCore: ++out.mcSdcCrossCore; break;
          case McClass::SyncCrash: ++out.mcSyncCrash; break;
          case McClass::Deadlock: ++out.mcDeadlock; break;
          default: break; // refinements that add nothing to the base
        }
    }
    reg.counter(obs::metric::kInjectRuns, "",
                "classified injection runs (replayed or simulated)")
        .inc(out.runs);
    if (out.weightedModel) {
        reg.counter(obs::metric::kIsRuns, "",
                    "injection runs classified under a reweighted "
                    "(importance-sampling) proposal")
            .inc(out.classified());
        if (out.classified() > 0)
            reg.gauge(obs::metric::kIsEssRatio, "",
                      "effective-sample-size fraction ESS/n of the "
                      "last weighted campaign, in parts per million")
                .set(static_cast<int64_t>(
                    1e6 * out.ess() /
                    static_cast<double>(out.classified())));
    }
    reg.counter(obs::metric::kInjectRetries, "",
                "extra attempts spent containing faulted runs")
        .inc(out.retries);
    const char *help = "injection outcomes by classification";
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Masked\"", help)
        .inc(out.masked);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"SDC\"", help)
        .inc(out.sdc);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Crash\"", help)
        .inc(out.crash);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Timeout\"", help)
        .inc(out.timeout);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"EngineFault\"",
                help)
        .inc(out.engineFault);
    if (workload_.threaded) {
        const char *mcHelp =
            "multi-core outcome refinements by classification";
        reg.counter(obs::metric::kMcOutcomes,
                    "class=\"CoherenceMasked\"", mcHelp)
            .inc(out.mcCoherenceMasked);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SdcSameCore\"",
                    mcHelp)
            .inc(out.mcSdcSameCore);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SdcCrossCore\"",
                    mcHelp)
            .inc(out.mcSdcCrossCore);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SyncCrash\"",
                    mcHelp)
            .inc(out.mcSyncCrash);
        reg.counter(obs::metric::kMcOutcomes, "class=\"Deadlock\"",
                    mcHelp)
            .inc(out.mcDeadlock);
    }
    return out;
}

} // namespace tea::inject
