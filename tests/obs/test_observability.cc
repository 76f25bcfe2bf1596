/**
 * The observability contract (ctest label tier1obs):
 *
 *  - counters/gauges/histograms are correct under the thread pool and
 *    dedup by (name, label);
 *  - the trace dump is well-formed Chrome trace_event JSON (checked
 *    with the in-tree parser);
 *  - run manifests round-trip through write/read;
 *  - and — the load-bearing one — campaign results are byte-identical
 *    with metrics + tracing armed vs. disabled.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/results.hh"
#include "inject/campaign.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::obs;

namespace {

std::string
tmpPath(const char *name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("tea_obs_test_") + name))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

} // namespace

// ---- metrics registry ----------------------------------------------

TEST(Metrics, CounterCorrectUnderThreadPool)
{
    Registry &reg = Registry::global();
    Counter c = reg.counter("tea_test_pool_total", "", "test");
    uint64_t before = c.value();
    ThreadPool pool(4);
    pool.parallelFor(0, 1000, [&](uint64_t, unsigned) { c.inc(1); });
    EXPECT_EQ(c.value() - before, 1000u);
}

TEST(Metrics, CounterDedupsByNameAndLabel)
{
    Registry &reg = Registry::global();
    Counter a = reg.counter("tea_test_dedup_total", "k=\"v\"", "test");
    Counter b = reg.counter("tea_test_dedup_total", "k=\"v\"");
    Counter other = reg.counter("tea_test_dedup_total", "k=\"w\"");
    uint64_t beforeA = a.value(), beforeOther = other.value();
    a.inc(3);
    EXPECT_EQ(b.value() - beforeA, 3u); // same underlying cell
    EXPECT_EQ(other.value() - beforeOther, 0u); // distinct label
}

TEST(Metrics, GaugeHoldsLastValue)
{
    Gauge g = Registry::global().gauge("tea_test_gauge", "", "test");
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.set(-7);
    EXPECT_EQ(g.value(), -7);
}

TEST(Metrics, HistogramBucketsAndSumUnderThreadPool)
{
    obs::Histogram h = Registry::global().histogram(
        "tea_test_hist_ms", {1.0, 10.0, 100.0}, "", "test");
    uint64_t before = h.count();
    ThreadPool pool(4);
    // 250 x 0.5 (bucket 0), 250 x 5 (bucket 1), 250 x 50 (bucket 2),
    // 250 x 500 (overflow).
    const double vals[4] = {0.5, 5.0, 50.0, 500.0};
    pool.parallelFor(0, 1000, [&](uint64_t i, unsigned) {
        h.observe(vals[i % 4]);
    });
    EXPECT_EQ(h.count() - before, 1000u);
    EXPECT_GE(h.bucketCount(0), 250u);
    EXPECT_GE(h.bucketCount(1), 250u);
    EXPECT_GE(h.bucketCount(2), 250u);
    EXPECT_GE(h.bucketCount(3), 250u);
    EXPECT_NEAR(h.sum(), 250 * (0.5 + 5.0 + 50.0 + 500.0), 1.0);
}

TEST(Metrics, SimWorkCountersCountEveryCycleLevelRun)
{
    Registry &reg = Registry::global();
    auto counters = [&](const char *engine) {
        std::string label = std::string("engine=\"") + engine + "\"";
        return std::make_pair(reg.counter(metric::kSimInstructions, label),
                              reg.counter(metric::kSimCycles, label));
    };
    auto [oooInstr, oooCycles] = counters("ooo");
    auto [mcInstr, mcCycles] = counters("mc");

    // Golden preparation counts its one detailed run...
    uint64_t i0 = oooInstr.value(), c0 = oooCycles.value();
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    EXPECT_EQ(oooCycles.value() - c0, campaign.goldenCycles());
    EXPECT_GT(oooInstr.value() - i0, 0u);

    // ...and every injected run adds its committed instructions.
    uint64_t i1 = oooInstr.value();
    Rng rng(42);
    auto res = campaign.run(models::DaModel(5e-3), 4, rng, nullptr);
    EXPECT_EQ(oooInstr.value() - i1, res.committedInstructions);

    uint64_t m0 = mcCycles.value(), mi0 = mcInstr.value();
    mc::McConfig mcCfg;
    inject::InjectionCampaign mt(workloads::buildWorkload("hotspot-mt", 1),
                                 sim::OooConfig{}, mcCfg);
    EXPECT_EQ(mcCycles.value() - m0, mt.goldenCycles());
    EXPECT_GT(mcInstr.value() - mi0, 0u);

    // A run with nothing to inject is answered from the golden run: it
    // simulates nothing and counts as a golden run instead.
    Counter golden = reg.counter(metric::kInjectGoldenRuns);
    uint64_t g0 = golden.value();
    uint64_t i2 = oooInstr.value(), c2 = oooCycles.value();
    uint64_t mi2 = mcInstr.value(), m2 = mcCycles.value();
    auto none = campaign.run(models::DaModel(0.0), 5, rng, nullptr);
    auto mtNone = mt.run(models::DaModel(0.0), 3, rng, nullptr);
    EXPECT_EQ(none.masked, 5u);
    EXPECT_EQ(mtNone.masked, 3u);
    EXPECT_EQ(oooInstr.value(), i2);
    EXPECT_EQ(oooCycles.value(), c2);
    EXPECT_EQ(mcInstr.value(), mi2);
    EXPECT_EQ(mcCycles.value(), m2);
    EXPECT_EQ(golden.value() - g0, 8u);
}

TEST(Metrics, SnapshotIsWellFormedJson)
{
    Registry &reg = Registry::global();
    reg.counter("tea_test_snap_total", "", "snapshot test").inc(1);
    json::Value snap = reg.snapshot();
    auto reparsed = json::parse(snap.dump(2));
    ASSERT_TRUE(reparsed.has_value());
    const json::Value *schema = reparsed->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "tea-metrics-v1");
    const json::Value *metrics = reparsed->find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->asArray().size(), 0u);
}

TEST(Metrics, PrometheusRenderingHasFamiliesAndHistogramSeries)
{
    Registry &reg = Registry::global();
    reg.counter("tea_test_prom_total", "", "prom test").inc(5);
    reg.histogram("tea_test_prom_ms", {1.0, 10.0}, "", "prom test")
        .observe(3.0);
    std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP tea_test_prom_total"), std::string::npos);
    EXPECT_NE(text.find("# TYPE tea_test_prom_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE tea_test_prom_ms histogram"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_bucket{le=\"10\"}"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_sum"), std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_count"), std::string::npos);
}

// ---- phase tracer --------------------------------------------------

TEST(Trace, DumpIsWellFormedChromeTraceJson)
{
    Tracer &tracer = Tracer::global();
    tracer.enable(1024);
    tracer.clear();
    {
        Span outer("outer.phase", "toolflow");
        ThreadPool pool(4);
        pool.parallelFor(0, 64, [&](uint64_t i, unsigned) {
            Span inner("inner.run", "inject",
                       static_cast<int64_t>(i));
        });
    }
    std::string path = tmpPath("trace.json");
    ASSERT_TRUE(tracer.dumpTo(path));
    auto parsed = json::parse(slurp(path));
    ASSERT_TRUE(parsed.has_value());
    const json::Value *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->asArray().size(), 65u); // 64 inner + 1 outer
    for (const json::Value &e : events->asArray()) {
        const json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->asString(), "X");
        EXPECT_NE(e.find("name"), nullptr);
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("dur"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
    }
    EXPECT_EQ(tracer.dropped(), 0u);
    std::filesystem::remove(path);
}

TEST(Trace, RingOverwritesAndCountsDrops)
{
    Tracer &tracer = Tracer::global();
    tracer.enable(16);
    tracer.clear();
    for (int i = 0; i < 40; ++i)
        Span s("span", "test");
    EXPECT_EQ(tracer.recorded(), 40u);
    EXPECT_EQ(tracer.dropped(), 24u);
    std::string path = tmpPath("trace_ring.json");
    ASSERT_TRUE(tracer.dumpTo(path));
    auto parsed = json::parse(slurp(path));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("traceEvents")->asArray().size(), 16u);
    std::filesystem::remove(path);
}

TEST(Trace, RunRangeRecordsOneRunSpanPerExecutedRun)
{
    // Fleet range units dispatch runs through runRange(); each run it
    // executes gets the same `inject.run` span as under run(), and
    // reports the same record run() reports for that index.
    using Record = inject::InjectionCampaign::RunRecord;
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::DaModel model(5e-3);
    ThreadPool pool(2);
    auto same = [](const Record &a, const Record &b) {
        return a.outcome == b.outcome && a.injected == b.injected &&
               a.committed == b.committed && a.wrongPath == b.wrongPath &&
               a.attempts == b.attempts && a.fault == b.fault &&
               a.logWeight == b.logWeight && a.mcClass == b.mcClass;
    };

    std::vector<Record> whole(4);
    inject::InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    opts.onComplete = [&](uint64_t i, const Record &r) { whole[i] = r; };
    Rng rng(42);
    campaign.run(model, 4, rng, opts);

    Tracer &tracer = Tracer::global();
    tracer.enable(4096);
    tracer.clear();
    std::vector<Record> ranged(4);
    std::vector<int> reported(4, 0);
    opts.onComplete = [&](uint64_t i, const Record &r) {
        ranged[i] = r;
        ++reported[i];
    };
    // Run 2 comes from the journal: replayed runs execute nothing and
    // get no run span.
    opts.replay = [&](uint64_t i, Record &r) {
        if (i != 2)
            return false;
        r = whole[2];
        return true;
    };
    Rng rng2(42);
    EXPECT_EQ(campaign.runRange(model, 0, 4, rng2, opts), 3u);
    for (uint64_t i : {0u, 1u, 3u}) {
        EXPECT_EQ(reported[i], 1) << i;
        EXPECT_TRUE(same(ranged[i], whole[i])) << i;
    }
    EXPECT_EQ(reported[2], 0);

    std::string path = tmpPath("trace_range.json");
    ASSERT_TRUE(tracer.dumpTo(path));
    auto parsed = json::parse(slurp(path));
    ASSERT_TRUE(parsed.has_value());
    std::vector<int64_t> runSpans;
    for (const json::Value &e : parsed->find("traceEvents")->asArray())
        if (e.find("name")->asString() == "inject.run")
            runSpans.push_back(static_cast<int64_t>(
                e.find("args")->find("i")->asInt()));
    std::sort(runSpans.begin(), runSpans.end());
    EXPECT_EQ(runSpans, (std::vector<int64_t>{0, 1, 3}));
    std::filesystem::remove(path);
}

// ---- run manifests -------------------------------------------------

TEST(Manifest, RoundTripsThroughWriteAndRead)
{
    RunManifest m;
    m.workload = "sobel";
    m.model = "WA";
    m.modelDetail = "WA(sobel)";
    m.vrFrac = 0.20;
    m.seed = 7;
    m.runsPerCell = 60;
    m.workloadScale = 2;
    m.threads = 4;
    m.identity = "workload=sobel model=WA(sobel) vr=0.2000";
    m.journalPath = "/tmp/jnl";
    m.gridCsvPath = "/tmp/grid.csv";
    m.runs = 60;
    m.masked = 40;
    m.sdc = 10;
    m.crash = 6;
    m.timeout = 3;
    m.engineFault = 1;
    m.retries = 2;
    m.replayedRuns = 30;
    m.injectedErrors = 1234;
    m.committedInstructions = 987654;
    m.interrupted = false;

    std::string path = tmpPath("manifest.json");
    ASSERT_TRUE(writeRunManifest(path, m));
    auto back = readRunManifest(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->workload, m.workload);
    EXPECT_EQ(back->model, m.model);
    EXPECT_EQ(back->modelDetail, m.modelDetail);
    EXPECT_DOUBLE_EQ(back->vrFrac, m.vrFrac);
    EXPECT_EQ(back->seed, m.seed);
    EXPECT_EQ(back->runsPerCell, m.runsPerCell);
    EXPECT_EQ(back->workloadScale, m.workloadScale);
    EXPECT_EQ(back->threads, m.threads);
    EXPECT_EQ(back->identity, m.identity);
    EXPECT_EQ(back->journalPath, m.journalPath);
    EXPECT_EQ(back->gridCsvPath, m.gridCsvPath);
    EXPECT_EQ(back->runs, m.runs);
    EXPECT_EQ(back->masked, m.masked);
    EXPECT_EQ(back->sdc, m.sdc);
    EXPECT_EQ(back->crash, m.crash);
    EXPECT_EQ(back->timeout, m.timeout);
    EXPECT_EQ(back->engineFault, m.engineFault);
    EXPECT_EQ(back->retries, m.retries);
    EXPECT_EQ(back->replayedRuns, m.replayedRuns);
    EXPECT_EQ(back->injectedErrors, m.injectedErrors);
    EXPECT_EQ(back->committedInstructions, m.committedInstructions);
    EXPECT_EQ(back->interrupted, m.interrupted);
    // writeRunManifest stamps provenance that was left empty.
    EXPECT_FALSE(back->gitDescribe.empty());
    EXPECT_FALSE(back->wallTime.empty());
    EXPECT_FALSE(back->metrics.isNull());
    std::filesystem::remove(path);
}

TEST(Manifest, RejectsWrongSchema)
{
    std::string path = tmpPath("bad_manifest.json");
    {
        std::ofstream out(path);
        out << "{\"schema\": \"tea-manifest-v999\", "
               "\"workload\": \"x\"}\n";
    }
    EXPECT_FALSE(readRunManifest(path).has_value());
    std::filesystem::remove(path);
}

// ---- determinism: obs on vs off ------------------------------------

TEST(Determinism, CampaignBytesIdenticalWithObsOnVsOff)
{
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::DaModel model(5e-3);
    ThreadPool pool(4);

    auto runOnce = [&] {
        Rng rng(42);
        return campaign.run(model, 8, rng, &pool);
    };

    // Pass 1 runs with the process's ambient obs state; pass 2 with
    // the tracer freshly armed and the metric registry hot. Identical
    // bytes prove observability is observation-only. (The stronger
    // obs-subsystem-absent baseline was established against the
    // pre-obs tree when this layer landed.)
    Tracer::global().clear();
    auto off = runOnce();

    Tracer::global().enable(4096);
    auto on = runOnce();

    core::EvaluationGrid a, b;
    a.cells.push_back({"sobel", models::ModelKind::DA, 0.2, off});
    b.cells.push_back({"sobel", models::ModelKind::DA, 0.2, on});
    std::string pa = tmpPath("grid_off.csv");
    std::string pb = tmpPath("grid_on.csv");
    core::saveGrid(pa, a);
    core::saveGrid(pb, b);
    EXPECT_EQ(slurp(pa), slurp(pb));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}
