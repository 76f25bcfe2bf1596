/**
 * @file
 * The fleet contract: lease-based multi-process campaigns are
 * byte-identical to the single-process grid — for any worker count,
 * under SIGKILL chaos, and through the shard-journal merge — and a
 * unit that repeatedly kills workers is quarantined as poison instead
 * of stalling the campaign.
 *
 * The worker binary under test is injected at compile time
 * (TEA_WORKER_BIN, from $<TARGET_FILE:tea-worker>).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/coordinator.hh"
#include "fleet/queue.hh"
#include "fleet/workunit.hh"
#include "util/fsatomic.hh"

using namespace tea;
using namespace tea::core;
using namespace tea::fleet;
using inject::InjectionCampaign;

namespace {

namespace fs = std::filesystem;

/** Tiny-but-real campaign: 2 workloads x 3 models x 1 VR, 6 runs. */
ToolflowOptions
tinyOptions(const std::string &cacheDir)
{
    ToolflowOptions opt;
    opt.iaCountPerOp = 200;
    opt.waMaxOps = 500;
    opt.daSampleOps = 700;
    opt.runsPerCell = 6;
    opt.vrLevels = {0.20};
    opt.threads = 1; // in-order journals; manifests match workers'
    opt.cacheDir = cacheDir;
    return opt;
}

GridSpec
tinySpec()
{
    GridSpec spec;
    spec.workloads = {"sobel", "cg"};
    return spec;
}

FleetOptions
tinyFleet(int workers, const std::string &spool)
{
    FleetOptions fopt;
    fopt.workers = workers;
    fopt.workerBin = TEA_WORKER_BIN;
    fopt.spoolDir = spool;
    fopt.leaseMs = 3000;
    fopt.maxAttempts = 3;
    fopt.backoffMs = 50;
    fopt.pollMs = 10;
    return fopt;
}

/** Set an env var for one scope (the workers inherit it). */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const char *n, const std::string &value) : name(n)
    {
        setenv(n, value.c_str(), 1);
    }
    ~ScopedEnv() { unsetenv(name.c_str()); }
};

/**
 * Strip the fields the manifest schema declares as observation-only
 * (`written` wall time and the trailing `metrics` snapshot); with
 * `dropReplayed`, also the replay provenance a crash-resumed cell
 * legitimately reports differently.
 */
std::string
normalizeManifest(std::string text, bool dropReplayed = false)
{
    size_t metrics = text.find("\"metrics\"");
    if (metrics != std::string::npos)
        text.resize(metrics);
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find("\"written\"") != std::string::npos)
            continue;
        if (dropReplayed &&
            line.find("\"replayedRuns\"") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

/** Grid CSV + per-cell manifest bytes, removed after capture so the
 * next campaign in the same cache dir regenerates them at identical
 * paths (characterization caches stay warm). */
struct Artifacts
{
    std::string csv;
    std::vector<std::string> manifests;
};

Artifacts
captureAndClear(const ToolflowOptions &opt, const GridSpec &spec)
{
    Artifacts a;
    std::string csvPath = gridCachePath(opt, spec);
    a.csv = readFileToString(csvPath).value_or("");
    fs::remove(csvPath);
    for (const CellPlan &cp : planEvaluationGrid(opt, spec)) {
        std::string mp =
            cellManifestPath(opt, cp.workload, cp.model, cp.vrFrac);
        a.manifests.push_back(readFileToString(mp).value_or(""));
        fs::remove(mp);
    }
    return a;
}

void
expectSameResults(const EvaluationGrid &ref, const EvaluationGrid &got)
{
    ASSERT_EQ(ref.cells.size(), got.cells.size());
    for (size_t i = 0; i < ref.cells.size(); ++i) {
        const auto &r = ref.cells[i].result;
        const auto &g = got.cells[i].result;
        EXPECT_EQ(ref.cells[i].workload, got.cells[i].workload);
        EXPECT_EQ(ref.cells[i].model, got.cells[i].model);
        EXPECT_EQ(r.runs, g.runs) << "cell " << i;
        EXPECT_EQ(r.masked, g.masked) << "cell " << i;
        EXPECT_EQ(r.sdc, g.sdc) << "cell " << i;
        EXPECT_EQ(r.crash, g.crash) << "cell " << i;
        EXPECT_EQ(r.timeout, g.timeout) << "cell " << i;
        EXPECT_EQ(r.engineFault, g.engineFault) << "cell " << i;
        EXPECT_EQ(r.injectedErrors, g.injectedErrors) << "cell " << i;
        EXPECT_EQ(r.committedInstructions, g.committedInstructions)
            << "cell " << i;
        if (std::isnan(r.avm()))
            EXPECT_TRUE(std::isnan(g.avm())) << "cell " << i;
        else
            EXPECT_DOUBLE_EQ(r.avm(), g.avm()) << "cell " << i;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Work-unit / plan / done-file serialization
// ---------------------------------------------------------------------

TEST(FleetFormats, WorkUnitRoundTrip)
{
    WorkUnit u;
    u.id = 42;
    u.kind = WorkUnit::Kind::Range;
    u.cell = 7;
    u.lo = 512;
    u.hi = 1024;
    auto parsed = WorkUnit::parse(u.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id, 42u);
    EXPECT_EQ(parsed->kind, WorkUnit::Kind::Range);
    EXPECT_EQ(parsed->cell, 7u);
    EXPECT_EQ(parsed->lo, 512u);
    EXPECT_EQ(parsed->hi, 1024u);
}

TEST(FleetFormats, SealRejectsDamage)
{
    WorkUnit u;
    u.id = 3;
    std::string good = u.serialize();
    EXPECT_TRUE(WorkUnit::parse(good).has_value());
    // Flip one payload byte: the CRC seal must reject it.
    std::string bad = good;
    bad[bad.find("unit 3") + 5] = '4';
    EXPECT_FALSE(WorkUnit::parse(bad).has_value());
    // Truncated mid-seal.
    EXPECT_FALSE(WorkUnit::parse(good.substr(0, good.size() - 4))
                     .has_value());
    EXPECT_FALSE(WorkUnit::parse("").has_value());
}

TEST(FleetFormats, PlanRoundTripIsExact)
{
    FleetPlan plan;
    plan.opt = tinyOptions("/tmp/some cache dir");
    plan.opt.seed = 0xdeadbeefULL;
    plan.opt.ciTarget = 0.012345678901234567;
    plan.opt.vrLevels = {0.15, 0.2000000000000001};
    plan.spec = tinySpec();
    plan.spec.useCache = false;
    plan.leaseMs = 777;
    auto parsed = FleetPlan::parse(plan.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->opt.seed, plan.opt.seed);
    EXPECT_EQ(parsed->opt.runsPerCell, plan.opt.runsPerCell);
    EXPECT_EQ(parsed->opt.cacheDir, plan.opt.cacheDir);
    EXPECT_EQ(parsed->opt.threads, plan.opt.threads);
    // Doubles must round-trip bit-exactly (%.17g) — the whole
    // byte-identity story rides on workers seeing the same plan.
    EXPECT_EQ(parsed->opt.ciTarget, plan.opt.ciTarget);
    ASSERT_EQ(parsed->opt.vrLevels.size(), 2u);
    EXPECT_EQ(parsed->opt.vrLevels[0], plan.opt.vrLevels[0]);
    EXPECT_EQ(parsed->opt.vrLevels[1], plan.opt.vrLevels[1]);
    EXPECT_EQ(parsed->spec.workloads, plan.spec.workloads);
    EXPECT_FALSE(parsed->spec.useCache);
    EXPECT_EQ(parsed->leaseMs, 777);
}

TEST(FleetFormats, RetiredEngineKeyInPlanIsIgnored)
{
    // Plans from older versions carry a `dtabackend` line that picked
    // a batched DTA engine. The daemon parses client plans verbatim,
    // so any value — even one no engine ever had — must parse, must
    // not abort characterization, and must not change its result.
    FleetPlan plan{tinyOptions(""), tinySpec()};
    const std::string current = plan.serialize();
    EXPECT_EQ(current.find("dtabackend"), std::string::npos);
    auto body = unsealBody(current);
    ASSERT_TRUE(body.has_value());
    const std::string legacyBody = *body + "dtabackend 3\n";

    auto legacy = FleetPlan::parse(sealBody(legacyBody));
    auto parsed = FleetPlan::parse(current);
    ASSERT_TRUE(legacy.has_value());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(legacy->serialize(), current);

    auto daErrorRatio = [](const FleetPlan &p) {
        Toolflow tf(p.opt);
        return tf.daErrorRatio(p.opt.vrLevels.front());
    };
    const double er = daErrorRatio(*legacy);
    EXPECT_EQ(er, daErrorRatio(*parsed));
    EXPECT_GT(er, 0.0);
}

TEST(FleetFormats, UnitResultRoundTrip)
{
    UnitResult r;
    r.unit = 9;
    r.fresh = 4;
    r.result.runs = 6;
    r.result.masked = 3;
    r.result.sdc = 1;
    r.result.crash = 1;
    r.result.timeout = 1;
    r.result.injectedErrors = 17;
    r.result.committedInstructions = 54321;
    auto parsed = UnitResult::parse(r.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->unit, 9u);
    EXPECT_EQ(parsed->fresh, 4u);
    EXPECT_EQ(parsed->result.runs, 6u);
    EXPECT_EQ(parsed->result.masked, 3u);
    EXPECT_EQ(parsed->result.committedInstructions, 54321u);
}

// ---------------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------------

TEST(FleetQueue, ClaimIsExclusive)
{
    std::string dir = "/tmp/tea_fleet_test_queue";
    fs::remove_all(dir);
    WorkQueue q(dir);
    WorkUnit u;
    u.id = 0;
    ASSERT_TRUE(q.publish(FleetPlan{tinyOptions(dir), tinySpec()},
                          {u}));
    EXPECT_TRUE(q.claim(0, 111));
    EXPECT_FALSE(q.claim(0, 222)) << "second claimant must lose";
    auto lease = q.loadLease(0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->pid, 111);

    // Renewal moves the heartbeat and keeps the lease present.
    int64_t beat0 = lease->beat;
    EXPECT_TRUE(q.renew(0, 111));
    lease = q.loadLease(0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_GE(lease->beat, beat0);

    // A zombie must not release its successor's lease.
    EXPECT_FALSE(q.releaseIfOwner(0, 222));
    EXPECT_TRUE(q.loadLease(0).has_value());
    EXPECT_TRUE(q.releaseIfOwner(0, 111));
    EXPECT_FALSE(q.loadLease(0).has_value());
    EXPECT_TRUE(q.claim(0, 222)) << "released lease is claimable";

    // Tries and poison round-trip.
    EXPECT_EQ(q.tries(0), 0);
    q.setTries(0, 2);
    EXPECT_EQ(q.tries(0), 2);
    EXPECT_FALSE(q.isPoisoned(0));
    EXPECT_TRUE(q.poison(0));
    EXPECT_TRUE(q.isPoisoned(0));
    fs::remove_all(dir);
}

TEST(FleetQueue, RepublishRejectsStaleCampaignState)
{
    std::string dir = "/tmp/tea_fleet_test_stale";
    fs::remove_all(dir);
    WorkQueue q(dir);
    FleetPlan planA{tinyOptions(dir), tinySpec()};
    WorkUnit u0, u1;
    u0.id = 0;
    u1.id = 1;
    u1.cell = 1;
    ASSERT_TRUE(q.publish(planA, {u0, u1}));
    UnitResult done;
    done.unit = 0;
    done.result.runs = 6;
    ASSERT_TRUE(q.markDone(done));
    q.setTries(1, 1);
    ASSERT_TRUE(q.poison(1));

    // Byte-identical re-publish is a resume: state survives.
    ASSERT_TRUE(q.publish(planA, {u0, u1}));
    EXPECT_TRUE(q.isDone(0));
    EXPECT_TRUE(q.isPoisoned(1));
    EXPECT_EQ(q.tries(1), 1);

    // A different campaign (other seed) into the same spool: its
    // done/tries/poison describe other work and must be wiped, not
    // silently spliced into the new grid.
    FleetPlan planB = planA;
    planB.opt.seed += 1;
    ASSERT_TRUE(q.publish(planB, {u0, u1}));
    EXPECT_FALSE(q.isDone(0));
    EXPECT_FALSE(q.isPoisoned(1));
    EXPECT_EQ(q.tries(1), 0);
    ASSERT_TRUE(q.loadUnit(0).has_value());
    ASSERT_TRUE(q.loadUnit(1).has_value());

    // Same plan, different decomposition (e.g. another shard size):
    // a unit whose bytes changed voids its recorded state, and units
    // beyond the new count disappear from the workers' sweep.
    ASSERT_TRUE(q.markDone(done));
    WorkUnit r0 = u0;
    r0.kind = WorkUnit::Kind::Range;
    r0.lo = 0;
    r0.hi = 3;
    ASSERT_TRUE(q.publish(planB, {r0}));
    EXPECT_FALSE(q.isDone(0));
    EXPECT_EQ(q.listUnits(), std::vector<uint64_t>{0});
    auto reloaded = q.loadUnit(0);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(reloaded->kind, WorkUnit::Kind::Range);
    EXPECT_EQ(reloaded->hi, 3u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Shard-journal merge: bytes equal a single-threaded whole-cell run
// ---------------------------------------------------------------------

TEST(FleetShards, MergedJournalIsByteIdentical)
{
    std::string dir = "/tmp/tea_fleet_test_shards";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ToolflowOptions opt = tinyOptions(dir);
    opt.runsPerCell = 8;
    GridSpec spec;
    spec.workloads = {"sobel"};
    std::vector<CellPlan> cells = planEvaluationGrid(opt, spec);
    const CellPlan &cp = cells[0]; // sobel / DA

    // Reference: the whole cell on one thread — runGridCell leaves
    // its journal on disk, appended in run-index order.
    Toolflow tf(opt);
    CampaignCell ref = runGridCell(tf, cp, "");
    std::string jpath =
        cellJournalPath(opt, cp.workload, cp.model, cp.vrFrac);
    auto refJournal = readFileToString(jpath);
    ASSERT_TRUE(refJournal.has_value());
    ShardJournal(jpath).remove();

    // The same cell as two run-range shards, as fleet workers would
    // execute them (fresh Rng from the plan state for each).
    auto model = cellModel(tf, cp);
    std::string identity =
        cellIdentity(opt, cp.workload, *model, cp.vrFrac);
    auto &campaign = tf.campaign(cp.workload);
    std::vector<std::string> shardPaths = {dir + "/shard0.jnl",
                                           dir + "/shard1.jnl"};
    uint64_t splits[][2] = {{0, 3}, {3, 8}};
    for (int s = 0; s < 2; ++s) {
        ShardJournal sj(shardPaths[s]);
        ASSERT_EQ(sj.open(identity, true), 0u);
        InjectionCampaign::RunOptions ro;
        ro.pool = &tf.pool();
        ro.onComplete =
            [&sj](uint64_t i,
                  const InjectionCampaign::RunRecord &rec) {
                sj.append(i, rec);
            };
        Rng rng = Rng::fromState(cp.rngState);
        EXPECT_EQ(campaign.runRange(*model, splits[s][0], splits[s][1],
                                    rng, ro),
                  splits[s][1] - splits[s][0]);
    }

    // Coordinator-style merge: records from all shards, re-appended
    // into the canonical journal in run-index order.
    std::map<uint64_t, ShardJournal::RunRecord> merged;
    for (const auto &p : shardPaths) {
        ShardJournal sj(p);
        EXPECT_GT(sj.open(identity, true), 0u);
        for (const auto &[idx, rec] : sj.records())
            merged.emplace(idx, rec);
    }
    EXPECT_EQ(merged.size(), 8u);
    {
        ShardJournal canonical(jpath);
        canonical.open(identity, false);
        for (const auto &[idx, rec] : merged)
            canonical.append(idx, rec);
    }
    auto mergedJournal = readFileToString(jpath);
    ASSERT_TRUE(mergedJournal.has_value());
    EXPECT_EQ(*refJournal, *mergedJournal)
        << "merged shard journal must be byte-identical to the "
           "single-threaded whole-cell journal";

    // And replaying the merged journal reproduces the cell exactly.
    ToolflowOptions resumeOpt = opt;
    resumeOpt.resume = true;
    Toolflow tf2(resumeOpt);
    CampaignCell replayed = runGridCell(tf2, cp, "");
    EXPECT_EQ(replayed.result.runs, ref.result.runs);
    EXPECT_EQ(replayed.result.masked, ref.result.masked);
    EXPECT_EQ(replayed.result.sdc, ref.result.sdc);
    EXPECT_EQ(replayed.result.injectedErrors,
              ref.result.injectedErrors);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// End-to-end: N workers == 1 process, byte for byte
// ---------------------------------------------------------------------

TEST(FleetGrid, ByteIdenticalAcrossWorkerCounts)
{
    std::string dir = "/tmp/tea_fleet_test_e2e";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec = tinySpec();

    // Single-process reference; capture grid CSV + manifests, then
    // clear them so each fleet run regenerates at identical paths
    // (characterization caches stay warm and shared).
    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 6u);
    Artifacts refArt = captureAndClear(opt, spec);
    ASSERT_FALSE(refArt.csv.empty());

    for (int workers : {1, 2, 4}) {
        EvaluationGrid grid = runFleetGrid(
            opt, tinyFleet(workers, dir + "/spool" +
                                        std::to_string(workers)),
            spec);
        expectSameResults(ref, grid);
        Artifacts art = captureAndClear(opt, spec);
        EXPECT_EQ(refArt.csv, art.csv)
            << workers << "-worker grid CSV must be byte-identical";
        ASSERT_EQ(refArt.manifests.size(), art.manifests.size());
        for (size_t i = 0; i < art.manifests.size(); ++i) {
            ASSERT_FALSE(art.manifests[i].empty())
                << "missing manifest " << i << " at " << workers
                << " workers";
            EXPECT_EQ(normalizeManifest(refArt.manifests[i]),
                      normalizeManifest(art.manifests[i]))
                << "manifest " << i << " at " << workers << " workers";
        }
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, ChaosSigkillRecoversByteIdentical)
{
    std::string dir = "/tmp/tea_fleet_test_chaos";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec = tinySpec();

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    Artifacts refArt = captureAndClear(opt, spec);

    // Every unit's first attempt SIGKILLs its worker after 2 fresh
    // runs; reissued leases must resume the journals and finish.
    EvaluationGrid grid;
    {
        ScopedEnv chaos("TEA_FLEET_TEST_CRASH_RUNS", "2");
        grid = runFleetGrid(opt, tinyFleet(2, dir + "/spool"), spec);
    }
    expectSameResults(ref, grid);
    Artifacts art = captureAndClear(opt, spec);
    EXPECT_EQ(refArt.csv, art.csv)
        << "post-chaos grid CSV must be byte-identical";
    ASSERT_EQ(refArt.manifests.size(), art.manifests.size());
    for (size_t i = 0; i < art.manifests.size(); ++i) {
        ASSERT_FALSE(art.manifests[i].empty());
        // replayedRuns legitimately records the crash-resume replays;
        // everything else must match the uninterrupted reference.
        EXPECT_EQ(normalizeManifest(refArt.manifests[i], true),
                  normalizeManifest(art.manifests[i], true))
            << "manifest " << i;
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, ShardedCellsMatchReference)
{
    std::string dir = "/tmp/tea_fleet_test_sharded";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec;
    spec.workloads = {"sobel"};

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    Artifacts refArt = captureAndClear(opt, spec);

    // 3-run shards: each 6-run cell becomes two Range units whose
    // journals the coordinator merges and replays.
    FleetOptions fopt = tinyFleet(2, dir + "/spool");
    fopt.shardRuns = 3;
    EvaluationGrid grid = runFleetGrid(opt, fopt, spec);
    expectSameResults(ref, grid);
    Artifacts art = captureAndClear(opt, spec);
    EXPECT_EQ(refArt.csv, art.csv);
    fs::remove_all(dir);
}

TEST(FleetGrid, ImportanceSampledGridIsByteIdentical)
{
    // REPRO_IS grids must keep the fleet contract: the surrogate is a
    // pure function of (seed, corpus, VR levels) so every worker
    // trains or cache-loads identical weights, per-site proposals
    // derive from the shared trace, and the weighted columns in the
    // grid CSV merge bit-exactly — including through 3-run shards,
    // whose journals carry each run's log weight verbatim.
    std::string dir = "/tmp/tea_fleet_test_is";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    opt.isEnable = true;
    opt.isBoost = 2.0;
    opt.isMaxTilted = 1e9;   // full tilt: nontrivial weights merge
    opt.isCorpusPerOp = 200; // keep surrogate training sub-second
    GridSpec spec;
    spec.workloads = {"sobel"};

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    // IA and WA cells sample the tilted proposal; DA stays plain.
    EXPECT_TRUE(ref.cells[1].result.weightedModel);
    EXPECT_TRUE(ref.cells[2].result.weightedModel);
    EXPECT_FALSE(ref.cells[0].result.weightedModel);
    EXPECT_GT(ref.cells[1].result.weightSum, 0.0);
    Artifacts refArt = captureAndClear(opt, spec);
    ASSERT_FALSE(refArt.csv.empty());
    EXPECT_NE(refArt.csv.find(",1,"), std::string::npos);

    for (int workers : {1, 2}) {
        FleetOptions fopt =
            tinyFleet(workers, dir + "/spool" + std::to_string(workers));
        if (workers == 2)
            fopt.shardRuns = 3; // exercise the weighted journal merge
        EvaluationGrid grid = runFleetGrid(opt, fopt, spec);
        expectSameResults(ref, grid);
        for (size_t i = 0; i < ref.cells.size(); ++i) {
            const auto &r = ref.cells[i].result;
            const auto &g = grid.cells[i].result;
            EXPECT_EQ(0, std::memcmp(&r.weightSum, &g.weightSum,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0, std::memcmp(&r.weightUnsafe, &g.weightUnsafe,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0, std::memcmp(&r.weightSqSum, &g.weightSqSum,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0,
                      std::memcmp(&r.weightUnsafeSqSum,
                                  &g.weightUnsafeSqSum,
                                  sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
        }
        Artifacts art = captureAndClear(opt, spec);
        EXPECT_EQ(refArt.csv, art.csv)
            << workers << "-worker IS grid CSV must be byte-identical";
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, PoisonUnitDegradesToEngineFault)
{
    std::string dir = "/tmp/tea_fleet_test_poison";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec;
    spec.workloads = {"sobel"};

    FleetOptions fopt = tinyFleet(2, dir + "/spool");
    fopt.maxAttempts = 2;
    EvaluationGrid grid;
    {
        // Unit 1 (sobel / IA-model) kills every worker that claims it.
        ScopedEnv poison("TEA_FLEET_TEST_POISON_UNIT", "1");
        grid = runFleetGrid(opt, fopt, spec);
    }
    // The campaign completed — three cells, no stall.
    ASSERT_EQ(grid.cells.size(), 3u);
    const auto &bad = grid.cells[1].result;
    EXPECT_EQ(bad.runs, static_cast<uint64_t>(opt.runsPerCell));
    EXPECT_EQ(bad.engineFault, bad.runs)
        << "poisoned cell must degrade to all-EngineFault";
    EXPECT_EQ(bad.classified(), 0u);
    EXPECT_TRUE(std::isnan(bad.avm()))
        << "a poisoned cell must not masquerade as AVM=0";
    EXPECT_DOUBLE_EQ(bad.fraction(inject::Outcome::EngineFault), 1.0);
    // The healthy neighbours completed normally.
    EXPECT_EQ(grid.cells[0].result.engineFault, 0u);
    EXPECT_EQ(grid.cells[2].result.engineFault, 0u);
    EXPECT_EQ(grid.cells[0].result.runs,
              static_cast<uint64_t>(opt.runsPerCell));
    // The quarantine marker is on disk for the post-mortem.
    WorkQueue q(dir + "/spool");
    EXPECT_TRUE(q.isPoisoned(1));
    EXPECT_FALSE(q.isPoisoned(0));
    fs::remove_all(dir);
}
