/**
 * Micro-performance benchmarks (google-benchmark) of the framework's
 * hot paths: soft-float arithmetic, levelized netlist evaluation, the
 * two DTA engines, gate-level FPU execution, and the two simulators.
 *
 * `microbench --thread-sweep` instead runs the parallel campaign
 * engine at each thread count in REPRO_THREADS (comma-separated,
 * default "1,2,4") and prints a throughput table — ops/sec for the
 * random DTA campaign, runs/sec for the injection campaign, and the
 * speedup over the first (baseline) entry. Campaign results are
 * bit-identical across the sweep; the sweep asserts that too.
 *
 * `microbench --backend-sweep` races the scalar levelized oracle
 * (one op per call) against the compiled batched engine at 64, 256
 * and 512 lanes, then runs the same random campaign through every
 * cell at each REPRO_THREADS count, asserting byte-identical
 * per-instruction CSVs across every cell and >= 56x single-thread
 * compiled throughput over the scalar oracle.
 *
 * `microbench --adaptive-sweep` compares fixed-N against adaptive
 * (confidence-driven) campaign sizing at the same target half-width:
 * a VR15 DTA cell and a sobel injection cell, printing trial counts,
 * wall time, and the adaptive intervals, and asserting >= 2x savings
 * with intervals that contain the fixed-N point estimates.
 *
 * `--json <path>` (with any of the sweeps) additionally writes the
 * machine-readable BENCH_*.json results: per-backend throughput and
 * speedup, and the adaptive sweep's trial savings.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/builders.hh"
#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "fpu/fpu_core.hh"
#include "inject/campaign.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "softfloat/softfloat.hh"
#include "stats/intervals.hh"
#include "stats/planner.hh"
#include "timing/ber_csv.hh"
#include "timing/dta_campaign.hh"
#include "bench_common.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/table.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace tea;

static void
BM_SoftFloatMul64(benchmark::State &state)
{
    Rng rng(1);
    uint64_t a = sf::fromDouble(1.23456), b = sf::fromDouble(7.89);
    for (auto _ : state) {
        a ^= rng.next() & 0xffff;
        benchmark::DoNotOptimize(sf::mul64(a, b));
    }
}
BENCHMARK(BM_SoftFloatMul64);

static void
BM_SoftFloatDiv64(benchmark::State &state)
{
    Rng rng(2);
    uint64_t a = sf::fromDouble(1.23456), b = sf::fromDouble(7.89);
    for (auto _ : state) {
        a ^= rng.next() & 0xffff;
        benchmark::DoNotOptimize(sf::div64(a, b));
    }
}
BENCHMARK(BM_SoftFloatDiv64);

namespace {

struct AdderFixture
{
    circuit::Netlist nl{"adder32"};
    circuit::Bus ia, ib;

    AdderFixture()
    {
        circuit::Builder b(nl);
        ia = nl.addInputBus("a", 32);
        ib = nl.addInputBus("b", 32);
        auto add = b.rippleAdd(ia, ib);
        nl.addOutputBus("s", add.sum);
    }

    std::vector<bool>
    inputs(uint64_t a, uint64_t bv) const
    {
        std::vector<bool> in(nl.numInputs());
        for (int i = 0; i < 32; ++i) {
            in[ia[i]] = (a >> i) & 1;
            in[ib[i]] = (bv >> i) & 1;
        }
        return in;
    }
};

} // namespace

static void
BM_NetlistEvaluate(benchmark::State &state)
{
    AdderFixture f;
    Rng rng(3);
    for (auto _ : state) {
        auto in = f.inputs(rng.next(), rng.next());
        benchmark::DoNotOptimize(circuit::evaluate(f.nl, in));
    }
}
BENCHMARK(BM_NetlistEvaluate);

static void
BM_DtaLevelized(benchmark::State &state)
{
    AdderFixture f;
    circuit::DelayAnnotation annot(
        f.nl, circuit::CellLibrary::nangate45Like(), 1);
    circuit::LevelizedDta dta(f.nl, annot);
    Rng rng(4);
    auto prev = f.inputs(rng.next(), rng.next());
    for (auto _ : state) {
        auto cur = f.inputs(rng.next(), rng.next());
        benchmark::DoNotOptimize(dta.run(prev, cur, 1000.0));
        prev = cur;
    }
}
BENCHMARK(BM_DtaLevelized);

static void
BM_DtaEventDriven(benchmark::State &state)
{
    AdderFixture f;
    circuit::DelayAnnotation annot(
        f.nl, circuit::CellLibrary::nangate45Like(), 1);
    circuit::EventDrivenDta dta(f.nl, annot);
    Rng rng(5);
    auto prev = f.inputs(rng.next(), rng.next());
    for (auto _ : state) {
        auto cur = f.inputs(rng.next(), rng.next());
        benchmark::DoNotOptimize(dta.run(prev, cur, 1000.0));
        prev = cur;
    }
}
BENCHMARK(BM_DtaEventDriven);

static void
BM_FpuGateLevelMul(benchmark::State &state)
{
    static fpu::FpuCore core;
    static size_t point = core.addOperatingPoint(1.2);
    Rng rng(6);
    for (auto _ : state) {
        uint64_t a, b;
        timing::randomOperands(fpu::FpuOp::MulD, rng, a, b);
        benchmark::DoNotOptimize(
            core.execute(point, fpu::FpuOp::MulD, a, b));
    }
}
BENCHMARK(BM_FpuGateLevelMul);

static void
BM_FuncSimSobel(benchmark::State &state)
{
    auto w = workloads::buildWorkload("sobel", 1);
    uint64_t instr = 0;
    for (auto _ : state) {
        sim::FuncSim sim(w.program);
        auto r = sim.run();
        instr = r.instructions;
        benchmark::DoNotOptimize(r);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instr) * state.iterations(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FuncSimSobel);

static void
BM_OooSimSobel(benchmark::State &state)
{
    auto w = workloads::buildWorkload("sobel", 1);
    uint64_t instr = 0;
    for (auto _ : state) {
        sim::OooSim sim(w.program);
        auto r = sim.run(~0ULL);
        instr = r.committed;
        benchmark::DoNotOptimize(r);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instr) * state.iterations(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OooSimSobel);

namespace {

/**
 * Sections of the machine-readable report `--json <path>` writes
 * (BENCH_*.json). Sweeps append what they measured; main() dumps the
 * accumulated object once on exit, so one invocation can combine e.g.
 * --backend-sweep and --adaptive-sweep into a single file.
 */
obs::json::Object gJsonReport;

void
addJsonSection(const char *name, obs::json::Value v)
{
    gJsonReport.emplace_back(name, std::move(v));
}

std::vector<unsigned>
sweepThreadCounts()
{
    std::vector<unsigned> counts;
    const char *env = std::getenv("REPRO_THREADS");
    std::string spec = env ? env : "1,2,4";
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        long n = std::strtol(spec.substr(pos, comma - pos).c_str(),
                             nullptr, 10);
        if (n > 0)
            counts.push_back(static_cast<unsigned>(n));
        pos = comma + 1;
    }
    if (counts.empty())
        counts = {1, 2, 4};
    return counts;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

timing::CampaignStats
aggressiveWaStats()
{
    timing::CampaignStats stats;
    auto &mul = stats.of(fpu::FpuOp::MulD);
    mul.total = 1000;
    mul.faulty = 100;
    mul.maskPool = {0x7ff0000000000000ULL, 0x000fffff00000000ULL,
                    0x4010000000000000ULL};
    return stats;
}

/**
 * Thread sweep of the two campaign layers. Wall-clock includes only
 * campaign execution; the gate-level FPU, its per-worker operating
 * points, and the golden injection reference are built up front.
 */
int
runThreadSweep()
{
    auto counts = sweepThreadCounts();
    unsigned maxThreads = 1;
    for (unsigned c : counts)
        maxThreads = std::max(maxThreads, c);

    const uint64_t dtaOpsPerType = [] {
        const char *runs = std::getenv("REPRO_RUNS");
        long n = runs ? std::strtol(runs, nullptr, 10) : 0;
        return n > 0 ? static_cast<uint64_t>(n) : 400;
    }();
    const int injectionRuns = 16;

    std::printf("parallel campaign engine thread sweep\n");
    std::printf("(REPRO_THREADS=<a,b,c,...> selects the sweep; "
                "hardware threads: %u)\n\n",
                std::thread::hardware_concurrency());

    std::printf("building gate-level FPU + golden reference...\n");
    fpu::FpuCore core;
    size_t point = core.addOperatingPoint(
        circuit::VoltageModel{}.delayFactorAtReduction(circuit::kVR20));
    core.workerPoints(point, maxThreads); // pre-build replica points
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::WaModel model("hot", aggressiveWaStats());

    const uint64_t dtaOps = dtaOpsPerType * fpu::kNumFpuOps;
    Table table({"threads", "DTA ops/s", "DTA s", "DTA speedup",
                 "inject runs/s", "inject s", "inject speedup"});
    double dtaBase = 0, injBase = 0;
    uint64_t refFaulty = 0, refSdc = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        ThreadPool pool(counts[i]);

        auto t0 = std::chrono::steady_clock::now();
        Rng dtaRng(1);
        auto stats = timing::runRandomCampaign(core, point,
                                               dtaOpsPerType, dtaRng,
                                               &pool);
        double dtaSec = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        Rng injRng(2);
        auto result = campaign.run(model, injectionRuns, injRng, &pool);
        double injSec = secondsSince(t0);

        // The determinism guarantee, checked while we are at it.
        if (i == 0) {
            refFaulty = stats.totalFaulty();
            refSdc = result.sdc;
        } else if (stats.totalFaulty() != refFaulty ||
                   result.sdc != refSdc) {
            std::printf("FAIL: results differ across thread counts\n");
            return 1;
        }

        if (i == 0) {
            dtaBase = dtaSec;
            injBase = injSec;
        }
        table.addRow({std::to_string(counts[i]),
                      Table::num(dtaSec > 0 ? dtaOps / dtaSec : 0, 0),
                      Table::num(dtaSec, 2),
                      Table::num(dtaSec > 0 ? dtaBase / dtaSec : 0, 2),
                      Table::num(injSec > 0 ? injectionRuns / injSec : 0,
                                 2),
                      Table::num(injSec, 2),
                      Table::num(injSec > 0 ? injBase / injSec : 0, 2)});
    }
    std::printf("\n%s\n", table.render("campaign throughput").c_str());
    std::printf("DTA cell: %llu random ops (%llu/type); injection "
                "cell: %d runs of sobel under an aggressive WA model\n",
                static_cast<unsigned long long>(dtaOps),
                static_cast<unsigned long long>(dtaOpsPerType),
                injectionRuns);
    return 0;
}

struct BackendCell
{
    const char *backend;
    unsigned lanes; ///< 1 runs the scalar LevelizedDta path
};

constexpr BackendCell kBackendCells[] = {
    {"levelized", 1},
    {"compiled", 64},
    {"compiled", 256},
    {"compiled", 512},
};

/**
 * Sustained single-thread DTA samples/s of one backend cell on the
 * mul.d unit (the paper's hottest pipeline): repeated
 * FpuUnit::executeBatch calls over pre-packed operand planes, with
 * one warmup batch outside the timed region so program compilation
 * and scratch sizing amortize the way they do in a real campaign.
 */
double
measureUnitThroughput(fpu::FpuCore &core, size_t point,
                      const BackendCell &cell)
{
    fpu::FpuUnit &u = core.unit(fpu::FpuUnitKind::MulD);
    const unsigned W = circuit::CompiledDta::wordsFor(cell.lanes);

    // A pool of pre-packed plane blocks, cycled so consecutive
    // batches see fresh transitions rather than one repeated input.
    Rng rng(11);
    constexpr unsigned kBlocks = 8;
    std::vector<std::vector<uint64_t>> blocks(kBlocks);
    for (auto &planes : blocks) {
        planes.assign(u.stage(0).numInputs() * size_t{W}, 0);
        for (unsigned l = 0; l < cell.lanes; ++l) {
            uint64_t a, b;
            timing::randomOperands(fpu::FpuOp::MulD, rng, a, b);
            auto in = u.packInputs(fpu::FpuOp::MulD, a, b);
            for (size_t i = 0; i < in.size(); ++i)
                if (in[i])
                    planes[i * W + l / 64] |= 1ULL << (l % 64);
        }
    }

    std::vector<fpu::FpuUnit::Exec> execs(cell.lanes);
    double cap = core.captureTimePs();
    u.reset(point);
    u.executeBatch(point, blocks[0], cell.lanes, cap, execs.data());

    auto t0 = std::chrono::steady_clock::now();
    uint64_t done = 0, batch = 0;
    double sec = 0;
    while (sec < 0.3 || batch < 4) {
        u.executeBatch(point, blocks[batch % kBlocks], cell.lanes,
                       cap, execs.data());
        done += cell.lanes;
        ++batch;
        sec = secondsSince(t0);
    }
    return done / sec;
}

/**
 * Backend sweep, two phases. Phase 1 measures sustained single-thread
 * DTA throughput per cell — levelized (the scalar oracle) and the
 * compiled engine at 64/256/512 lanes — with the oracle as the
 * speedup baseline; the best compiled cell must beat it by >= 56x:
 * 5x the retired 64-lane interpreter, which BENCH_dta.json records at
 * 11.25x the oracle. Phase 2 runs the random campaign through
 * every (cell, REPRO_THREADS count) pair and asserts every one
 * renders a byte-identical fig7-style CSV.
 */
int
runBackendSweep()
{
    auto counts = sweepThreadCounts();
    unsigned maxThreads = 1;
    for (unsigned c : counts)
        maxThreads = std::max(maxThreads, c);

    std::printf("batched-DTA backend sweep (SIMD: %s)\n",
                simd::isaName(simd::activeIsa()));
    std::printf("(REPRO_THREADS=<a,b,c,...> selects the identity "
                "check's thread counts.)\n\n");

    std::printf("building gate-level FPU...\n");
    fpu::FpuCore core;
    size_t point = core.addOperatingPoint(
        circuit::VoltageModel{}.delayFactorAtReduction(circuit::kVR20));
    core.workerPoints(point, maxThreads); // pre-build replica points

    // ---- phase 1: sustained DTA throughput (single thread) ---------
    Table table({"backend", "lanes", "samples/s", "speedup"});
    obs::json::Array rows;
    double rates[std::size(kBackendCells)];
    for (size_t i = 0; i < std::size(kBackendCells); ++i)
        rates[i] = measureUnitThroughput(core, point, kBackendCells[i]);
    const double scalarBase = rates[0];
    double bestCompiled = 0;
    for (size_t i = 0; i < std::size(kBackendCells); ++i) {
        const BackendCell &cell = kBackendCells[i];
        double speedup = scalarBase > 0 ? rates[i] / scalarBase : 0;
        if (cell.lanes > 1)
            bestCompiled = std::max(bestCompiled, speedup);
        table.addRow({cell.backend, std::to_string(cell.lanes),
                      Table::num(rates[i], 0), Table::num(speedup, 2)});
        rows.push_back(obs::json::Object{
            {"backend", cell.backend},
            {"lanes", static_cast<int64_t>(cell.lanes)},
            {"samplesPerSec", rates[i]},
            {"speedupVsLevelized", speedup},
        });
    }
    std::printf("\n%s\n",
                table.render("DTA throughput (mul.d, 1 thread)")
                    .c_str());
    std::printf("speedup is vs the scalar levelized oracle\n\n");

    // ---- phase 2: campaign identity across cells and threads -------
    // One full shard per op type so even 512-lane batches form.
    const uint64_t opsPerType = timing::kDtaShardOps;
    std::string refCsv;
    unsigned checked = 0;
    for (unsigned threads : counts) {
        for (const BackendCell &cell : kBackendCells) {
            timing::setDtaLanes(cell.lanes);
            ThreadPool pool(threads);
            Rng rng(1);
            auto stats = timing::runRandomCampaign(core, point,
                                                   opsPerType, rng,
                                                   &pool);
            std::string csv = timing::berCsv(stats);
            if (refCsv.empty()) {
                refCsv = csv;
            } else if (csv != refCsv) {
                timing::setDtaLanes(0);
                std::printf("FAIL: stats differ at threads=%u "
                            "backend=%s lanes=%u\n",
                            threads, cell.backend, cell.lanes);
                return 1;
            }
            ++checked;
        }
    }
    timing::setDtaLanes(0); // back to the default width
    std::printf("campaign identity: %u (backend, lanes, threads) "
                "cells x %llu ops/type,\nall CSVs byte-identical\n",
                checked,
                static_cast<unsigned long long>(opsPerType));

    addJsonSection(
        "backendSweep",
        obs::json::Object{
            {"simd", simd::isaName(simd::activeIsa())},
            {"unit", "mul.d"},
            {"bestCompiledSpeedupVsLevelized", bestCompiled},
            {"identityCellsChecked", static_cast<int64_t>(checked)},
            {"csvIdentical", true},
            {"rows", std::move(rows)},
        });
    if (bestCompiled < 56.0) {
        std::printf("FAIL: single-thread compiled speedup %.2fx below "
                    "the 56x target\n",
                    bestCompiled);
        return 1;
    }
    return 0;
}

/**
 * Adaptive-vs-fixed sweep: at an equal target half-width, how many
 * trials does the confidence-driven planner spend compared with the
 * classic worst-case-sized campaign — and do the adaptive intervals
 * contain the fixed-N point estimates?
 *
 * Cell 1 (DTA): random characterization at VR15, per-op-type strata,
 * target Wilson half-width REPRO_CI_TARGET (default 0.01, the
 * acceptance bar) at 95% — fixed-N is the worst-case n = (z/2h)^2 per
 * type. Cell 2 (injection): the sobel campaign under an aggressive WA
 * model at the paper's 3%/95% sizing (fixed-N 1068 runs).
 *
 * Exit status: 0 when at least one cell shows >= 2x fewer runs AND
 * every early-stopped stratum's interval contains the fixed-N point
 * estimate; 1 otherwise.
 */
int
runAdaptiveSweep()
{
    double hwDta = 0.01, conf = 0.95;
    if (const char *e = std::getenv("REPRO_CI_TARGET")) {
        double v = std::strtod(e, nullptr);
        if (v > 0.0 && v < 0.5)
            hwDta = v;
    }
    if (const char *e = std::getenv("REPRO_CI_CONF")) {
        double v = std::strtod(e, nullptr);
        if (v > 0.5 && v < 1.0)
            conf = v;
    }
    const uint64_t fixedPerOp = stats::worstCaseTrials(hwDta, conf);
    const unsigned threads = ThreadPool::defaultThreads();

    std::printf("adaptive vs fixed-N campaign sizing "
                "(half-width %.4g at %.0f%%, %u threads)\n\n",
                hwDta, conf * 100, threads);

    // ---- cell 1: DTA characterization at VR15 ----------------------
    std::printf("building gate-level FPU (VR15 point)...\n");
    fpu::FpuCore core;
    size_t point = core.addOperatingPoint(
        circuit::VoltageModel{}.delayFactorAtReduction(circuit::kVR15));
    ThreadPool pool(threads);
    core.workerPoints(point, threads);

    auto t0 = std::chrono::steady_clock::now();
    Rng fixedRng(1);
    auto fixed = timing::runRandomCampaign(core, point, fixedPerOp,
                                           fixedRng, &pool);
    double fixedSec = secondsSince(t0);

    stats::PlannerConfig cfg;
    cfg.ciTarget = hwDta;
    cfg.ciConf = conf;
    cfg.maxPerStratum = fixedPerOp;
    t0 = std::chrono::steady_clock::now();
    Rng adptRng(1);
    auto adpt = timing::runAdaptiveRandomCampaign(core, point, cfg,
                                                  adptRng, &pool);
    double adptSec = secondsSince(t0);

    Table dta({"op", "fixed n", "adaptive n", "fixed ER",
               "adaptive ER +/-", "contained"});
    bool dtaContained = true;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        auto op = static_cast<fpu::FpuOp>(o);
        const auto &fs = fixed.of(op);
        const auto &as = adpt.of(op);
        auto ci = as.errorInterval(conf);
        bool contained = ci.contains(fs.errorRatio());
        dtaContained = dtaContained && contained;
        char pm[48];
        std::snprintf(pm, sizeof(pm), "%.4f +/- %.4f", as.errorRatio(),
                      ci.halfWidth());
        dta.addRow({fpu::fpuOpName(op), std::to_string(fs.total),
                    std::to_string(as.total),
                    Table::num(fs.errorRatio(), 4), pm,
                    contained ? "yes" : "NO"});
    }
    std::printf("\n%s\n", dta.render("DTA @ VR15").c_str());
    double dtaRatio =
        adpt.totalOps()
            ? static_cast<double>(fixed.totalOps()) /
                  static_cast<double>(adpt.totalOps())
            : 0.0;
    std::printf("DTA trials: fixed %llu (%.1fs)  adaptive %llu "
                "(%.1fs)  ratio %.2fx\n\n",
                static_cast<unsigned long long>(fixed.totalOps()),
                fixedSec,
                static_cast<unsigned long long>(adpt.totalOps()),
                adptSec, dtaRatio);
    bool dtaPass = dtaRatio >= 2.0 && dtaContained;

    // ---- cell 2: injection campaign (sobel, paper 3%/95%) ----------
    const double hwInj = 0.03;
    const int injFixed =
        static_cast<int>(stats::worstCaseTrials(hwInj, conf));
    std::printf("building sobel golden reference (%d fixed runs)...\n",
                injFixed);
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::WaModel model("hot", aggressiveWaStats());

    inject::InjectionCampaign::RunOptions fo;
    fo.pool = &pool;
    t0 = std::chrono::steady_clock::now();
    Rng injFixedRng(2);
    auto injF = campaign.run(model, injFixed, injFixedRng, fo);
    double injFixedSec = secondsSince(t0);

    inject::InjectionCampaign::RunOptions ao = fo;
    ao.ciTarget = hwInj;
    ao.ciConf = conf;
    t0 = std::chrono::steady_clock::now();
    Rng injAdptRng(2);
    auto injA = campaign.run(model, injFixed, injAdptRng, ao);
    double injAdptSec = secondsSince(t0);

    auto injCi = injA.avmInterval(conf);
    bool injContained = injCi.contains(injF.avm());
    double injRatio = injA.runs ? static_cast<double>(injF.runs) /
                                      static_cast<double>(injA.runs)
                                : 0.0;
    Table inj({"campaign", "runs", "s", "AVM", "+/-"});
    inj.addRow({"fixed", std::to_string(injF.runs),
                Table::num(injFixedSec, 1), Table::num(injF.avm(), 4),
                Table::num(injF.avmInterval(conf).halfWidth(), 4)});
    inj.addRow({"adaptive", std::to_string(injA.runs),
                Table::num(injAdptSec, 1), Table::num(injA.avm(), 4),
                Table::num(injCi.halfWidth(), 4)});
    std::printf("\n%s\n",
                inj.render("injection (sobel, hw 0.03)").c_str());
    std::printf("injection runs: fixed %llu  adaptive %llu  ratio "
                "%.2fx  fixed AVM in adaptive interval: %s\n\n",
                static_cast<unsigned long long>(injF.runs),
                static_cast<unsigned long long>(injA.runs), injRatio,
                injContained ? "yes" : "NO");
    bool injPass = injRatio >= 2.0 && injContained;

    addJsonSection(
        "adaptiveSweep",
        obs::json::Object{
            {"dtaFixedTrials", fixed.totalOps()},
            {"dtaAdaptiveTrials", adpt.totalOps()},
            {"dtaTrialsSaved",
             static_cast<int64_t>(fixed.totalOps()) -
                 static_cast<int64_t>(adpt.totalOps())},
            {"dtaSavingsRatio", dtaRatio},
            {"injFixedRuns", injF.runs},
            {"injAdaptiveRuns", injA.runs},
            {"injRunsSaved", static_cast<int64_t>(injF.runs) -
                                 static_cast<int64_t>(injA.runs)},
            {"injSavingsRatio", injRatio},
        });

    if (!dtaPass && !injPass) {
        std::printf("FAIL: no cell reached >= 2x savings with "
                    "contained intervals (DTA %.2fx/%s, inject "
                    "%.2fx/%s)\n",
                    dtaRatio, dtaContained ? "contained" : "escaped",
                    injRatio, injContained ? "contained" : "escaped");
        return 1;
    }
    std::printf("PASS: adaptive sizing saves >= 2x at equal target "
                "half-width (DTA %s, inject %s)\n",
                dtaPass ? "pass" : "miss", injPass ? "pass" : "miss");
    return 0;
}

/**
 * Wraps an inner model and throws from plan() on a deterministic
 * fraction of calls, exercising the containment/retry machinery.
 */
class FaultyModel final : public models::ErrorModel
{
  public:
    FaultyModel(const models::ErrorModel &inner, unsigned faultPercent)
        : inner_(inner), faultPercent_(faultPercent)
    {
    }

    models::ModelKind kind() const override { return inner_.kind(); }
    std::string describe() const override
    {
        return inner_.describe() + "+faults";
    }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &profile, Rng &rng) const override
    {
        unsigned c = calls_.fetch_add(1);
        if (faultPercent_ && (c * faultPercent_) % 100 >=
                                 (100 - faultPercent_))
            throw std::runtime_error("synthetic model fault");
        return inner_.plan(profile, rng);
    }
    double
    expectedErrors(const models::ProgramProfile &profile) const override
    {
        return inner_.expectedErrors(profile);
    }

  private:
    const models::ErrorModel &inner_;
    unsigned faultPercent_;
    mutable std::atomic<unsigned> calls_{0};
};

/**
 * Containment-overhead stress: the sobel campaign under a model that
 * throws on 0%, 25% and 50% of plan() calls. Measures how much
 * throughput run-level containment costs when faults are absent and
 * how gracefully it degrades when they are common.
 */
int
runFaultStress()
{
    const int runs = 48;
    std::printf("run-level containment stress (sobel, %d runs, "
                "%u threads)\n\n",
                runs, ThreadPool::defaultThreads());
    setQuiet(true); // the 50% row would drown the table in warns
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::WaModel inner("hot", aggressiveWaStats());

    Table table({"fault rate", "runs/s", "s", "enginefault", "retries",
                 "overhead"});
    double baseSec = 0;
    for (unsigned pct : {0u, 25u, 50u}) {
        FaultyModel model(inner, pct);
        ThreadPool pool(ThreadPool::defaultThreads());
        inject::InjectionCampaign::RunOptions opts;
        opts.pool = &pool;
        auto t0 = std::chrono::steady_clock::now();
        Rng rng(2);
        auto result = campaign.run(model, runs, rng, opts);
        double sec = secondsSince(t0);
        if (pct == 0)
            baseSec = sec;
        char pctBuf[16];
        std::snprintf(pctBuf, sizeof(pctBuf), "%u%%", pct);
        table.addRow(
            {pctBuf, Table::num(sec > 0 ? runs / sec : 0, 2),
             Table::num(sec, 2), std::to_string(result.engineFault),
             std::to_string(result.retries),
             Table::num(baseSec > 0 ? sec / baseSec : 0, 2)});
    }
    setQuiet(false);
    std::printf("%s\n", table.render("containment overhead").c_str());
    std::printf("overhead = wall-clock vs the fault-free row; "
                "enginefault counts runs dropped after %d attempts\n",
                inject::kDefaultRunAttempts);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tea::bench::initObs(argc, argv);
    std::string jsonPath =
        tea::bench::consumeFlagValue(argc, argv, "--json");
    // Sweeps run in the order requested and combine into one JSON
    // report; the worst exit status wins.
    int rc = 0;
    bool ranSweep = false;
    for (int i = 1; i < argc; ++i) {
        int r = -1;
        if (std::strcmp(argv[i], "--thread-sweep") == 0)
            r = runThreadSweep();
        else if (std::strcmp(argv[i], "--backend-sweep") == 0)
            r = runBackendSweep();
        else if (std::strcmp(argv[i], "--adaptive-sweep") == 0)
            r = runAdaptiveSweep();
        else if (std::strcmp(argv[i], "--fault-stress") == 0)
            r = runFaultStress();
        if (r >= 0) {
            ranSweep = true;
            rc = std::max(rc, r);
        }
    }
    if (ranSweep) {
        if (!jsonPath.empty()) {
            obs::json::Object report{
                {"schema", "tea-bench-v1"},
                {"git", obs::gitDescribe()},
                {"passed", rc == 0},
            };
            for (auto &kv : gJsonReport)
                report.push_back(std::move(kv));
            FILE *f = std::fopen(jsonPath.c_str(), "w");
            if (!f) {
                std::printf("cannot write %s\n", jsonPath.c_str());
                return 1;
            }
            std::string text =
                obs::json::Value(std::move(report)).dump(2);
            std::fwrite(text.data(), 1, text.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("wrote %s\n", jsonPath.c_str());
        }
        return rc;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
