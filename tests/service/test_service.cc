/**
 * @file
 * The campaign-service contract: the framed wire protocol rejects
 * damage and survives fragmentation; the scheduler deduplicates
 * identical plans, bounds its queue with RETRY_AFTER (never dropping
 * an accepted campaign), and enforces per-client in-flight caps; and
 * a campaign submitted through tea-daemon — over a real socket, with
 * SIGKILL chaos in the worker fleet — produces byte-identical merged
 * artifacts to the same plan run in-process.
 *
 * The worker binary under test is injected at compile time
 * (TEA_WORKER_BIN, from $<TARGET_FILE:tea-worker>).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/workunit.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "service/cellwire.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/scheduler.hh"
#include "util/crc32.hh"
#include "util/fsatomic.hh"

using namespace tea;
using namespace tea::core;
using namespace tea::service;

namespace {

namespace fs = std::filesystem;

/** Tiny-but-real campaign: 1 workload x 3 models x 1 VR, 6 runs. */
ToolflowOptions
tinyOptions(const std::string &cacheDir, uint64_t seed = 1)
{
    ToolflowOptions opt;
    opt.iaCountPerOp = 200;
    opt.waMaxOps = 500;
    opt.daSampleOps = 700;
    opt.runsPerCell = 6;
    opt.vrLevels = {0.20};
    opt.threads = 1;
    opt.seed = seed;
    opt.cacheDir = cacheDir;
    return opt;
}

GridSpec
tinySpec()
{
    GridSpec spec;
    spec.workloads = {"sobel"};
    return spec;
}

fleet::FleetPlan
tinyPlan(const std::string &cacheDir, uint64_t seed = 1)
{
    return fleet::FleetPlan{tinyOptions(cacheDir, seed), tinySpec()};
}

/** Set an env var for one scope (daemon workers inherit it). */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const char *n, const std::string &value) : name(n)
    {
        setenv(n, value.c_str(), 1);
    }
    ~ScopedEnv() { unsetenv(name.c_str()); }
};

void
expectSameCells(const std::vector<CampaignCell> &ref,
                const std::vector<CampaignCell> &got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        const auto &r = ref[i].result;
        const auto &g = got[i].result;
        EXPECT_EQ(ref[i].workload, got[i].workload) << "cell " << i;
        EXPECT_EQ(ref[i].model, got[i].model) << "cell " << i;
        EXPECT_EQ(ref[i].vrFrac, got[i].vrFrac) << "cell " << i;
        EXPECT_EQ(r.runs, g.runs) << "cell " << i;
        EXPECT_EQ(r.masked, g.masked) << "cell " << i;
        EXPECT_EQ(r.sdc, g.sdc) << "cell " << i;
        EXPECT_EQ(r.crash, g.crash) << "cell " << i;
        EXPECT_EQ(r.timeout, g.timeout) << "cell " << i;
        EXPECT_EQ(r.engineFault, g.engineFault) << "cell " << i;
        EXPECT_EQ(r.injectedErrors, g.injectedErrors) << "cell " << i;
        EXPECT_EQ(r.committedInstructions, g.committedInstructions)
            << "cell " << i;
    }
}

DaemonOptions
schedulerOptions(const std::string &dir)
{
    DaemonOptions opt;
    opt.socketPath = dir + "/d.sock";
    opt.cacheDir = dir;
    opt.spoolRoot = dir + "/spool";
    // No worker binary: campaigns execute in-process inside the
    // executor thread (runFleetGrid's fallback path).
    opt.fleet.workers = 0;
    return opt;
}

} // namespace

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTripAllTypes)
{
    const MsgType types[] = {
        MsgType::Hello,    MsgType::Submit,   MsgType::Status,
        MsgType::Watch,    MsgType::Cancel,   MsgType::Drain,
        MsgType::HelloOk,  MsgType::SubmitOk, MsgType::StatusOk,
        MsgType::Cell,     MsgType::Done,     MsgType::Error,
    };
    for (MsgType t : types) {
        std::string payload =
            std::string("key value for ") + msgTypeName(t) + "\n";
        std::string wire = encodeFrame(t, payload);
        Frame f;
        size_t consumed = 0;
        ASSERT_EQ(decodeFrame(wire, f, consumed), DecodeStatus::Ok)
            << msgTypeName(t);
        EXPECT_EQ(consumed, wire.size());
        EXPECT_EQ(f.version, kProtocolVersion);
        EXPECT_EQ(f.type, static_cast<uint16_t>(t));
        EXPECT_EQ(f.payload, payload);
        EXPECT_TRUE(knownMsgType(f.type));
    }
    EXPECT_FALSE(knownMsgType(0));
    EXPECT_FALSE(knownMsgType(63));
    EXPECT_FALSE(knownMsgType(127));
}

TEST(ServiceProtocol, EveryPrefixNeedsMore)
{
    std::string wire = encodeFrame(MsgType::Submit, "plan bytes here");
    // Any strict prefix is an incomplete frame, never Bad: a decoder
    // mid-stream must keep reading, not cut the connection.
    for (size_t n = 0; n < wire.size(); ++n) {
        Frame f;
        size_t consumed = 0;
        EXPECT_EQ(decodeFrame(std::string_view(wire).substr(0, n), f,
                              consumed),
                  DecodeStatus::NeedMore)
            << "prefix " << n;
    }
    // Two concatenated frames decode one at a time.
    std::string two = wire + encodeFrame(MsgType::Status, "id 7\n");
    Frame f;
    size_t consumed = 0;
    ASSERT_EQ(decodeFrame(two, f, consumed), DecodeStatus::Ok);
    EXPECT_EQ(consumed, wire.size());
    ASSERT_EQ(decodeFrame(std::string_view(two).substr(consumed), f,
                          consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(f.payload, "id 7\n");
}

TEST(ServiceProtocol, RejectsDamage)
{
    std::string wire = encodeFrame(MsgType::Hello, "client test\n");
    Frame f;
    size_t consumed = 0;

    // Wrong magic: not our protocol.
    std::string badMagic = wire;
    badMagic[0] = 'X';
    EXPECT_EQ(decodeFrame(badMagic, f, consumed), DecodeStatus::Bad);

    // Flipped payload byte: CRC catches it.
    std::string flipped = wire;
    flipped[kFrameHeaderSize] ^= 0x01;
    EXPECT_EQ(decodeFrame(flipped, f, consumed), DecodeStatus::Bad);

    // Flipped CRC byte.
    std::string badCrc = wire;
    badCrc.back() ^= 0x01;
    EXPECT_EQ(decodeFrame(badCrc, f, consumed), DecodeStatus::Bad);

    // A garbage length field must be rejected outright (no 4 GiB
    // buffering while "waiting" for the rest of the frame).
    std::string hugeLen = wire.substr(0, kFrameHeaderSize);
    hugeLen[8] = '\xff';
    hugeLen[9] = '\xff';
    hugeLen[10] = '\xff';
    hugeLen[11] = '\x7f';
    EXPECT_EQ(decodeFrame(hugeLen, f, consumed), DecodeStatus::Bad);
}

TEST(ServiceProtocol, VersionSkewIsDistinguishedFromCorruption)
{
    // Hand-build a structurally perfect frame with version 2.
    std::string wire = encodeFrame(MsgType::Hello, "hi\n");
    wire[4] = 2; // version LE low byte
    // Re-seal: recompute the CRC over the altered header.
    std::string body = wire.substr(0, wire.size() - 4);
    std::string resealed = body;
    uint32_t crc = crc32(body.data(), body.size());
    for (int i = 0; i < 4; ++i)
        resealed.push_back(
            static_cast<char>((crc >> (8 * i)) & 0xff));
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(decodeFrame(resealed, f, consumed),
              DecodeStatus::VersionSkew);
    EXPECT_EQ(f.version, 2);
    EXPECT_EQ(consumed, resealed.size());
}

TEST(ServiceProtocol, ErrorCodeNamesRoundTrip)
{
    for (uint16_t raw = 1; raw <= 7; ++raw) {
        service::ErrorCode c = static_cast<service::ErrorCode>(raw);
        service::ErrorCode back = service::ErrorCode::Internal;
        ASSERT_TRUE(errorCodeFromName(errorCodeName(c), back));
        EXPECT_EQ(back, c);
    }
    service::ErrorCode out;
    EXPECT_FALSE(errorCodeFromName("NOT_A_CODE", out));
}

TEST(ServiceCellWire, RoundTrip)
{
    CampaignCell cell;
    cell.workload = "sobel";
    cell.model = models::ModelKind::DA;
    cell.vrFrac = 0.2000000000000001;
    cell.result.runs = 6;
    cell.result.masked = 3;
    cell.result.sdc = 1;
    cell.result.crash = 1;
    cell.result.timeout = 1;
    cell.result.injectedErrors = 42;
    cell.result.committedInstructions = 123456;
    CampaignCell back;
    ASSERT_TRUE(cellFromKv(parseKv(cellToKv(cell)), back));
    EXPECT_EQ(back.workload, cell.workload);
    EXPECT_EQ(back.model, cell.model);
    EXPECT_EQ(back.vrFrac, cell.vrFrac) << "vr must round-trip %.17g";
    EXPECT_EQ(back.result.runs, cell.result.runs);
    EXPECT_EQ(back.result.masked, cell.result.masked);
    EXPECT_EQ(back.result.sdc, cell.result.sdc);
    EXPECT_EQ(back.result.injectedErrors, cell.result.injectedErrors);
    EXPECT_EQ(back.result.committedInstructions,
              cell.result.committedInstructions);
    // Missing counter keys must not silently decode.
    CampaignCell bad;
    EXPECT_FALSE(cellFromKv(parseKv("workload sobel\nmodel 2\n"), bad));
}

// ---------------------------------------------------------------------
// Scheduler admission control (paused executors = deterministic queue)
// ---------------------------------------------------------------------

TEST(ServiceScheduler, DedupAttachesIdenticalPlans)
{
    std::string dir = "/tmp/tea_svc_test_dedup";
    fs::remove_all(dir);
    fs::create_directories(dir);
    DaemonOptions opt = schedulerOptions(dir);
    Scheduler sched(opt);
    sched.setPaused(true);

    // The two clients disagree about the cache dir; the daemon-side
    // override makes the plans byte-identical, so they must attach.
    auto a = sched.submit(tinyPlan("/tmp/client_a_cache").serialize(),
                          "alice");
    auto b = sched.submit(tinyPlan("/tmp/client_b_cache").serialize(),
                          "bob");
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    EXPECT_FALSE(a.sub.deduped);
    EXPECT_TRUE(b.sub.deduped);
    EXPECT_EQ(a.sub.id, b.sub.id);
    EXPECT_EQ(a.sub.cellsTotal, 3u);

    // A different campaign (other seed) is genuinely new work.
    auto c = sched.submit(tinyPlan(dir, 2).serialize(), "alice");
    ASSERT_TRUE(c.accepted);
    EXPECT_FALSE(c.sub.deduped);
    EXPECT_NE(c.sub.id, a.sub.id);

    sched.setPaused(false);
    sched.awaitIdle();
    auto p = sched.status(a.sub.id);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->state, CampaignState::Done);
    EXPECT_EQ(p->cellsDone, 3u);

    // Both attached submitters read the same stream.
    Scheduler::Event ev;
    std::vector<CampaignCell> seen;
    uint64_t cursor = 0;
    for (;;) {
        ASSERT_TRUE(sched.next(a.sub.id, cursor, 1000, ev));
        if (ev.haveCell) {
            seen.push_back(ev.cell);
            ++cursor;
            continue;
        }
        ASSERT_TRUE(ev.terminal);
        break;
    }
    EXPECT_EQ(seen.size(), 3u);
    fs::remove_all(dir);
}

TEST(ServiceScheduler, ClashKeysFollowArtifactPaths)
{
    // Campaigns clash exactly when they would write a common file:
    // different workloads or core counts run side by side, a shared
    // cell (same workload, coordinates and cache dir) serializes.
    auto keys = [](const ToolflowOptions &opt,
                   std::vector<std::string> workloads) {
        GridSpec spec;
        spec.workloads = std::move(workloads);
        auto v = clashKeysFor(opt, spec);
        return std::set<std::string>(v.begin(), v.end());
    };
    auto overlap = [](const std::set<std::string> &a,
                      const std::set<std::string> &b) {
        for (const auto &k : a)
            if (b.count(k))
                return true;
        return false;
    };
    const ToolflowOptions opt = tinyOptions("/tmp/tea_svc_clash");
    const auto sobel = keys(opt, {"sobel"});
    const auto srad = keys(opt, {"srad_v1"});
    const auto both = keys(opt, {"sobel", "srad_v1"});
    EXPECT_FALSE(overlap(sobel, srad));
    EXPECT_TRUE(overlap(sobel, both));
    EXPECT_TRUE(overlap(srad, both));
    EXPECT_EQ(keys(opt, {"sobel"}), sobel);

    ToolflowOptions two = opt, four = opt;
    two.mcCores = 2;
    four.mcCores = 4;
    EXPECT_FALSE(overlap(keys(two, {"k-means-mt"}),
                         keys(four, {"k-means-mt"})));
    // Another cache dir writes other files.
    EXPECT_FALSE(
        overlap(sobel, keys(tinyOptions("/tmp/tea_svc_clash2"),
                            {"sobel"})));
}

TEST(ServiceScheduler, BackpressureRejectsButNeverDrops)
{
    std::string dir = "/tmp/tea_svc_test_backpressure";
    fs::remove_all(dir);
    fs::create_directories(dir);
    DaemonOptions opt = schedulerOptions(dir);
    opt.queueCap = 2;
    opt.clientInflight = 100;
    opt.retryMs = 123;
    obs::Registry::global().reset();
    Scheduler sched(opt);
    sched.setPaused(true);

    auto s1 = sched.submit(tinyPlan(dir, 1).serialize(), "c");
    auto s2 = sched.submit(tinyPlan(dir, 2).serialize(), "c");
    ASSERT_TRUE(s1.accepted);
    ASSERT_TRUE(s2.accepted);
    // Queue full: the third distinct plan is rejected with a retry
    // hint, not blocked and not silently queued.
    auto s3 = sched.submit(tinyPlan(dir, 3).serialize(), "c");
    ASSERT_FALSE(s3.accepted);
    EXPECT_EQ(s3.rej.code, service::ErrorCode::RetryAfter);
    EXPECT_EQ(s3.rej.retryMs, 123);
    // ... but a duplicate of queued work still attaches: dedup costs
    // no queue slot.
    auto dup = sched.submit(tinyPlan(dir, 2).serialize(), "d");
    ASSERT_TRUE(dup.accepted);
    EXPECT_TRUE(dup.sub.deduped);

    // The rejection is visible in the metrics export.
    std::string prom = obs::Registry::global().renderPrometheus();
    EXPECT_NE(prom.find("tea_daemon_campaigns_rejected_total{code=\"RETRY_"
                        "AFTER\"} 1"),
              std::string::npos)
        << prom;

    // Every accepted campaign still completes.
    sched.setPaused(false);
    sched.awaitIdle();
    for (uint64_t id : {s1.sub.id, s2.sub.id}) {
        auto p = sched.status(id);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->state, CampaignState::Done);
        EXPECT_EQ(p->cellsDone, p->cellsTotal);
    }
    fs::remove_all(dir);
}

TEST(ServiceScheduler, PerClientInflightCap)
{
    std::string dir = "/tmp/tea_svc_test_inflight";
    fs::remove_all(dir);
    fs::create_directories(dir);
    DaemonOptions opt = schedulerOptions(dir);
    opt.queueCap = 100;
    opt.clientInflight = 2;
    Scheduler sched(opt);
    sched.setPaused(true);

    ASSERT_TRUE(sched.submit(tinyPlan(dir, 1).serialize(), "greedy")
                    .accepted);
    ASSERT_TRUE(sched.submit(tinyPlan(dir, 2).serialize(), "greedy")
                    .accepted);
    auto third = sched.submit(tinyPlan(dir, 3).serialize(), "greedy");
    ASSERT_FALSE(third.accepted);
    EXPECT_EQ(third.rej.code, service::ErrorCode::InflightLimit);
    // Another client is unaffected by greedy's cap.
    EXPECT_TRUE(sched.submit(tinyPlan(dir, 3).serialize(), "patient")
                    .accepted);
    sched.stop();
    fs::remove_all(dir);
}

TEST(ServiceScheduler, QueuedCancelAndDrain)
{
    std::string dir = "/tmp/tea_svc_test_cancel";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Scheduler sched(schedulerOptions(dir));
    sched.setPaused(true);

    auto s = sched.submit(tinyPlan(dir).serialize(), "c");
    ASSERT_TRUE(s.accepted);
    EXPECT_FALSE(sched.cancel(9999)) << "unknown id";
    ASSERT_TRUE(sched.cancel(s.sub.id));
    auto p = sched.status(s.sub.id);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->state, CampaignState::Cancelled);

    // The cancelled plan no longer blocks dedup: resubmission is a
    // fresh campaign.
    auto again = sched.submit(tinyPlan(dir).serialize(), "c");
    ASSERT_TRUE(again.accepted);
    EXPECT_FALSE(again.sub.deduped);
    EXPECT_NE(again.sub.id, s.sub.id);

    // Draining: nothing new is admitted, queued work still finishes.
    sched.drain();
    auto rejected = sched.submit(tinyPlan(dir, 7).serialize(), "c");
    ASSERT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.rej.code, service::ErrorCode::ShuttingDown);
    sched.setPaused(false);
    sched.awaitIdle();
    p = sched.status(again.sub.id);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->state, CampaignState::Done);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// End-to-end over the socket: daemon == in-process, byte for byte
// ---------------------------------------------------------------------

TEST(ServiceDaemon, ByteIdenticalToInProcessUnderChaos)
{
    std::string dir = "/tmp/tea_svc_test_e2e";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ToolflowOptions refOpt = tinyOptions(dir);
    GridSpec spec = tinySpec();

    // In-process reference; capture + clear the grid CSV so the
    // daemon run regenerates it at the identical path.
    Toolflow tf(refOpt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    std::string csvPath = gridCachePath(refOpt, spec);
    std::string refCsv = readFileToString(csvPath).value_or("");
    ASSERT_FALSE(refCsv.empty());
    fs::remove(csvPath);

    DaemonOptions opt;
    opt.socketPath = "/tmp/tea_svc_e2e.sock";
    opt.cacheDir = dir;
    opt.spoolRoot = dir + "/spool";
    opt.fleet.workers = 2;
    opt.fleet.workerBin = TEA_WORKER_BIN;
    opt.fleet.leaseMs = 3000;
    opt.fleet.maxAttempts = 5;
    opt.fleet.backoffMs = 50;
    opt.fleet.pollMs = 10;
    ServiceDaemon daemon(opt);
    ASSERT_TRUE(daemon.start());

    // The client's plan names a cache dir that doesn't exist; the
    // daemon must override it with its shared one.
    std::string planBytes = tinyPlan("/tmp/no_such_cache").serialize();

    std::vector<CampaignCell> streamed;
    Client::Status final;
    {
        // Every unit's first attempt SIGKILLs its worker after 2
        // fresh runs; the fleet must recover mid-campaign.
        ScopedEnv chaos("TEA_FLEET_TEST_CRASH_RUNS", "2");
        auto client = Client::connectUnix(opt.socketPath, "e2e");
        ASSERT_TRUE(client.has_value());
        Client::Submitted sub;
        ASSERT_TRUE(client->submit(planBytes, sub))
            << errorCodeName(client->lastError().code) << " "
            << client->lastError().detail;
        EXPECT_FALSE(sub.deduped);
        EXPECT_EQ(sub.cellsTotal, 3u);

        Client::Status mid;
        ASSERT_TRUE(client->status(sub.id, mid));
        EXPECT_EQ(mid.cellsTotal, 3u);

        ASSERT_TRUE(client->watch(
            sub.id,
            [&streamed](const CampaignCell &cell) {
                streamed.push_back(cell);
            },
            final));
    }
    EXPECT_EQ(final.state, "done");
    EXPECT_FALSE(final.interrupted);
    EXPECT_EQ(final.cellsDone, 3u);

    // The streamed cells are the reference cells...
    expectSameCells(ref.cells, streamed);
    // ... and the merged on-disk artifact is byte-identical.
    std::string daemonCsv = readFileToString(csvPath).value_or("");
    EXPECT_EQ(refCsv, daemonCsv)
        << "daemon-run grid CSV must be byte-identical to in-process";

    // An identical resubmission dedups against nothing (the campaign
    // finished) but hits the cached grid: instant, same cells.
    {
        auto client = Client::connectUnix(opt.socketPath, "e2e2");
        ASSERT_TRUE(client.has_value());
        Client::Submitted sub;
        ASSERT_TRUE(client->submit(planBytes, sub));
        std::vector<CampaignCell> cached;
        Client::Status fin;
        ASSERT_TRUE(client->watch(
            sub.id,
            [&cached](const CampaignCell &cell) {
                cached.push_back(cell);
            },
            fin));
        EXPECT_EQ(fin.state, "done");
        expectSameCells(ref.cells, cached);
    }

    daemon.stop();
    fs::remove_all(dir);
    fs::remove(opt.socketPath);
}

TEST(ServiceDaemon, ImportanceSampledCampaignMatchesInProcess)
{
    // REPRO_IS through the daemon: the plan carries the IS knobs, the
    // streamed cells carry the weighted-estimator sums bit-exactly,
    // and the merged grid CSV (weighted columns included) matches the
    // same plan run in-process.
    std::string dir = "/tmp/tea_svc_test_is";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ToolflowOptions refOpt = tinyOptions(dir);
    refOpt.isEnable = true;
    refOpt.isBoost = 2.0;
    refOpt.isMaxTilted = 1e9; // full tilt: nontrivial weights on wire
    refOpt.isCorpusPerOp = 200;
    GridSpec spec = tinySpec();

    Toolflow tf(refOpt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    std::string csvPath = gridCachePath(refOpt, spec);
    std::string refCsv = readFileToString(csvPath).value_or("");
    ASSERT_FALSE(refCsv.empty());
    fs::remove(csvPath);

    DaemonOptions opt = schedulerOptions(dir);
    opt.socketPath = "/tmp/tea_svc_is.sock";
    ServiceDaemon daemon(opt);
    ASSERT_TRUE(daemon.start());

    fleet::FleetPlan plan{refOpt, spec};
    std::vector<CampaignCell> streamed;
    Client::Status final;
    {
        auto client = Client::connectUnix(opt.socketPath, "is");
        ASSERT_TRUE(client.has_value());
        Client::Submitted sub;
        ASSERT_TRUE(client->submit(plan.serialize(), sub))
            << errorCodeName(client->lastError().code) << " "
            << client->lastError().detail;
        ASSERT_TRUE(client->watch(
            sub.id,
            [&streamed](const CampaignCell &cell) {
                streamed.push_back(cell);
            },
            final));
    }
    EXPECT_EQ(final.state, "done");
    expectSameCells(ref.cells, streamed);
    for (size_t i = 0; i < ref.cells.size(); ++i) {
        const auto &r = ref.cells[i].result;
        const auto &g = streamed[i].result;
        EXPECT_EQ(r.weightedModel, g.weightedModel) << "cell " << i;
        // The wire carries the sums as %.17g: bit-exact doubles.
        EXPECT_EQ(r.weightSum, g.weightSum) << "cell " << i;
        EXPECT_EQ(r.weightUnsafe, g.weightUnsafe) << "cell " << i;
        EXPECT_EQ(r.weightSqSum, g.weightSqSum) << "cell " << i;
        EXPECT_EQ(r.weightUnsafeSqSum, g.weightUnsafeSqSum)
            << "cell " << i;
    }
    // IA and WA cells really sampled the tilted proposal.
    EXPECT_TRUE(streamed[1].result.weightedModel);
    EXPECT_TRUE(streamed[2].result.weightedModel);

    std::string daemonCsv = readFileToString(csvPath).value_or("");
    EXPECT_EQ(refCsv, daemonCsv)
        << "daemon-run IS grid CSV must be byte-identical";

    daemon.stop();
    fs::remove_all(dir);
    fs::remove(opt.socketPath);
}

TEST(ServiceDaemon, ProtocolErrorsOverTheWire)
{
    std::string dir = "/tmp/tea_svc_test_wire";
    fs::remove_all(dir);
    fs::create_directories(dir);
    DaemonOptions opt = schedulerOptions(dir);
    opt.socketPath = "/tmp/tea_svc_wire.sock";
    ServiceDaemon daemon(opt);
    ASSERT_TRUE(daemon.start());

    // Version skew: a sealed frame with version 2 gets a structured
    // VERSION_SKEW error and the connection survives.
    {
        auto sock = Socket::connectUnix(opt.socketPath);
        ASSERT_TRUE(sock.has_value());
        std::string wire = encodeFrame(MsgType::Hello, "");
        wire[4] = 2;
        std::string body = wire.substr(0, wire.size() - 4);
        uint32_t crc = crc32(body.data(), body.size());
        wire = body;
        for (int i = 0; i < 4; ++i)
            wire.push_back(
                static_cast<char>((crc >> (8 * i)) & 0xff));
        ASSERT_TRUE(sock->sendAll(wire));
        std::string buf;
        Frame resp;
        ASSERT_EQ(recvFrame(*sock, buf, resp, 5000), RecvStatus::Ok);
        ASSERT_EQ(resp.type, static_cast<uint16_t>(MsgType::Error));
        auto kv = parseKv(resp.payload);
        EXPECT_EQ(kv["code"], "VERSION_SKEW");
        // Same connection, correct version: still serviceable.
        ASSERT_TRUE(sendFrame(*sock, MsgType::Hello, ""));
        ASSERT_EQ(recvFrame(*sock, buf, resp, 5000), RecvStatus::Ok);
        EXPECT_EQ(resp.type, static_cast<uint16_t>(MsgType::HelloOk));
    }

    // Garbage bytes: one best-effort BAD_REQUEST, then the daemon
    // cuts the connection (framing is unrecoverable).
    {
        auto sock = Socket::connectUnix(opt.socketPath);
        ASSERT_TRUE(sock.has_value());
        ASSERT_TRUE(sock->sendAll("this is not a TEAF frame at all"));
        std::string buf;
        Frame resp;
        ASSERT_EQ(recvFrame(*sock, buf, resp, 5000), RecvStatus::Ok);
        ASSERT_EQ(resp.type, static_cast<uint16_t>(MsgType::Error));
        auto kv = parseKv(resp.payload);
        EXPECT_EQ(kv["code"], "BAD_REQUEST");
        EXPECT_EQ(recvFrame(*sock, buf, resp, 5000),
                  RecvStatus::Closed);
    }

    // Daemon-side request errors through the client API.
    {
        auto client = Client::connectUnix(opt.socketPath, "errs");
        ASSERT_TRUE(client.has_value());
        Client::Status st;
        EXPECT_FALSE(client->status(424242, st));
        EXPECT_EQ(client->lastError().code, service::ErrorCode::NotFound);
        Client::Submitted sub;
        EXPECT_FALSE(client->submit("not a fleet plan", sub));
        EXPECT_EQ(client->lastError().code, service::ErrorCode::BadRequest);
    }

    // DRAIN over the wire: acknowledged, then submits are refused.
    {
        auto client = Client::connectUnix(opt.socketPath, "drainer");
        ASSERT_TRUE(client.has_value());
        ASSERT_TRUE(client->drain());
        EXPECT_TRUE(daemon.drainRequested());
        Client::Submitted sub;
        EXPECT_FALSE(client->submit(tinyPlan(dir).serialize(), sub));
        EXPECT_EQ(client->lastError().code, service::ErrorCode::ShuttingDown);
        daemon.awaitDrained(); // nothing was running: returns at once
    }

    daemon.stop();
    fs::remove_all(dir);
    fs::remove(opt.socketPath);
}

TEST(ServiceDaemon, TcpLoopbackServes)
{
    std::string dir = "/tmp/tea_svc_test_tcp";
    fs::remove_all(dir);
    fs::create_directories(dir);
    DaemonOptions opt = schedulerOptions(dir);
    opt.socketPath = "/tmp/tea_svc_tcp.sock";
    opt.tcpPort = 0; // ephemeral
    ServiceDaemon daemon(opt);
    ASSERT_TRUE(daemon.start());
    ASSERT_GT(daemon.tcpPort(), 0);

    auto client = Client::connectTcp(daemon.tcpPort(), "tcp");
    ASSERT_TRUE(client.has_value());
    Client::Status st;
    EXPECT_FALSE(client->status(1, st));
    EXPECT_EQ(client->lastError().code, service::ErrorCode::NotFound);

    daemon.stop();
    fs::remove_all(dir);
    fs::remove(opt.socketPath);
}
