/**
 * Compiled-backend DTA equivalence suite (ctest label tier1dta).
 *
 * The contract under test: the compiled SIMD-wide engine reproduces
 * the scalar levelized oracle bit-for-bit — settled values, captured
 * values, error masks, golden evaluations and (per its cone-only
 * contract) dynamic arrivals — on randomized DAGs over the full cell
 * library, at every lane width from 1 to 512, at every compiled ISA
 * level, on every stage of every FPU unit (where live-range arrival
 * rows are reused most), and through whole campaigns across
 * lane-width x thread-count with one lane (the scalar path) as the
 * oracle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "circuit/netlist.hh"
#include "fpu/fpu_core.hh"
#include "timing/ber_csv.hh"
#include "timing/dta_campaign.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

using namespace tea;
using namespace tea::circuit;
using namespace tea::timing;
using fpu::FpuOp;

namespace {

/** Shared FPU fixture: construction (netlists + STA) dominates cost. */
fpu::FpuCore &
core()
{
    static fpu::FpuCore c;
    return c;
}

size_t
vr20Point()
{
    static size_t p = core().addOperatingPoint(
        VoltageModel{}.delayFactorAtReduction(kVR20));
    return p;
}

/**
 * Random combinational DAG over the full cell library, including the
 * 3-input cells (Mux2, Maj3), constants and copies (Buf) — the cases
 * the compiled lowering folds, propagates or specializes. Cells pick
 * fanins from everything built so far, so construction order is
 * topological by design. The last `nOuts` nets form the output bus.
 */
Netlist
randomDag(uint64_t seed, unsigned nIn, unsigned nCells, unsigned nOuts)
{
    char name[32];
    std::snprintf(name, sizeof(name), "rand%llu",
                  static_cast<unsigned long long>(seed));
    Netlist nl(name);
    Rng rng(seed);
    std::vector<NetId> pool;
    for (unsigned i = 0; i < nIn; ++i) {
        std::snprintf(name, sizeof(name), "i%u", i);
        pool.push_back(nl.addInput(name));
    }
    auto pick = [&] {
        return pool[rng.next() % pool.size()];
    };
    static constexpr CellKind kKinds[] = {
        CellKind::Buf,   CellKind::Not,   CellKind::And2,
        CellKind::Or2,   CellKind::Xor2,  CellKind::Nand2,
        CellKind::Nor2,  CellKind::Xnor2, CellKind::Mux2,
        CellKind::Maj3,  CellKind::Const0, CellKind::Const1,
    };
    for (unsigned c = 0; c < nCells; ++c) {
        CellKind k = kKinds[rng.next() % std::size(kKinds)];
        NetId n;
        switch (cellArity(k)) {
        case 0:
            n = nl.addGate(k);
            break;
        case 1:
            n = nl.addGate(k, pick());
            break;
        case 2:
            n = nl.addGate(k, pick(), pick());
            break;
        default:
            n = nl.addGate(k, pick(), pick(), pick());
            break;
        }
        pool.push_back(n);
    }
    Bus outs(pool.end() - nOuts, pool.end());
    nl.addOutputBus("o", outs);
    return nl;
}

/** One random input-transition per lane, as bool vectors. */
struct LaneVectors
{
    std::vector<std::vector<bool>> prev, cur;
};

LaneVectors
randomLanes(Rng &rng, size_t nIn, unsigned lanes)
{
    LaneVectors v;
    v.prev.resize(lanes, std::vector<bool>(nIn));
    v.cur.resize(lanes, std::vector<bool>(nIn));
    for (unsigned l = 0; l < lanes; ++l)
        for (size_t i = 0; i < nIn; ++i) {
            v.prev[l][i] = rng.next() & 1;
            v.cur[l][i] = rng.next() & 1;
        }
    return v;
}

/** Pack lane vectors into input-major W-strided planes. */
void
packPlanes(const std::vector<std::vector<bool>> &lanes, unsigned W,
           std::vector<uint64_t> &planes)
{
    size_t nIn = lanes.empty() ? 0 : lanes[0].size();
    planes.assign(nIn * W, 0);
    for (unsigned l = 0; l < lanes.size(); ++l)
        for (size_t i = 0; i < nIn; ++i)
            if (lanes[l][i])
                planes[i * W + l / 64] |= 1ULL << (l % 64);
}

/**
 * The core differential: run the compiled engine once over `lanes`
 * transitions and the scalar oracle once per lane, and assert the
 * batch reproduces every lane bit-for-bit. Golden planes are checked
 * against the independent zero-delay evaluate(). Arrivals follow the
 * cone-only contract: exact above the capture time, lower bound below.
 */
void
expectMatchesOracle(const Netlist &nl, const DelayAnnotation &annot,
                    double scale, CompiledDta &comp,
                    const LaneVectors &v, double captureTimePs,
                    unsigned lanes, const char *what)
{
    LevelizedDta lev(nl, annot, scale);
    const unsigned W = CompiledDta::wordsFor(lanes);
    std::vector<uint64_t> pp, cp, gp;
    packPlanes(v.prev, W, pp);
    packPlanes(v.cur, W, cp);
    gp = cp; // golden evaluates the current vector
    const WideBatch &wb = comp.runBatch(pp, cp, gp, captureTimePs, lanes);
    ASSERT_EQ(wb.W, W) << what;

    const size_t nOut = nl.numOutputBits();
    unsigned faultyLanes = 0;
    for (unsigned l = 0; l < lanes; ++l) {
        auto rl = lev.run(v.prev[l], v.cur[l], captureTimePs);
        auto golden = flattenOutputs(nl, evaluate(nl, v.cur[l]));
        const unsigned w = l / 64, b = l % 64;
        for (size_t o = 0; o < nOut; ++o) {
            ASSERT_EQ((wb.settled[o * W + w] >> b) & 1,
                      uint64_t{rl.settled[o]})
                << what << " lane " << l << " out " << o;
            ASSERT_EQ((wb.captured[o * W + w] >> b) & 1,
                      uint64_t{rl.captured[o]})
                << what << " lane " << l << " out " << o;
            ASSERT_EQ((wb.golden[o * W + w] >> b) & 1,
                      uint64_t{golden[o]})
                << what << " lane " << l << " out " << o;
        }
        if (rl.maxArrivalPs > captureTimePs) {
            ASSERT_DOUBLE_EQ(wb.maxArrivalPs[l], rl.maxArrivalPs)
                << what << " lane " << l;
            ++faultyLanes;
        } else {
            ASSERT_LE(wb.maxArrivalPs[l], rl.maxArrivalPs)
                << what << " lane " << l;
        }
    }
    // Record that the lane mix actually exercised the timing pass.
    if (captureTimePs < 1e8) {
        EXPECT_GT(faultyLanes, 0u) << what;
    }
}

/** Compare every per-op statistic two campaigns accumulated. */
void
expectIdenticalStats(const CampaignStats &got, const CampaignStats &ref,
                     const char *what)
{
    EXPECT_EQ(got.engineFaults, ref.engineFaults) << what;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &g = got.perOp[o];
        const auto &r = ref.perOp[o];
        ASSERT_EQ(g.total, r.total) << what << " op " << o;
        ASSERT_EQ(g.faulty, r.faulty) << what << " op " << o;
        for (unsigned b = 0; b < 64; ++b)
            ASSERT_EQ(g.bitErrors[b], r.bitErrors[b])
                << what << " op " << o << " bit " << b;
        ASSERT_EQ(g.maskPool, r.maskPool) << what << " op " << o;
        ASSERT_EQ(g.maskKeys, r.maskKeys) << what << " op " << o;
    }
    EXPECT_EQ(berCsv(got), berCsv(ref)) << what;
}

} // namespace

TEST(CompiledDta, WordsForLaneCount)
{
    EXPECT_EQ(CompiledDta::wordsFor(1), 1u);
    EXPECT_EQ(CompiledDta::wordsFor(64), 1u);
    EXPECT_EQ(CompiledDta::wordsFor(65), 2u);
    EXPECT_EQ(CompiledDta::wordsFor(128), 2u);
    EXPECT_EQ(CompiledDta::wordsFor(129), 4u);
    EXPECT_EQ(CompiledDta::wordsFor(256), 4u);
    EXPECT_EQ(CompiledDta::wordsFor(257), 8u);
    EXPECT_EQ(CompiledDta::wordsFor(512), 8u);
}

TEST(CompiledDta, RandomDagsMatchOracleAtEveryWidth)
{
    // Three random DAGs x six lane widths spanning every word count
    // and both word-boundary edges (63/64/65). The capture time is
    // chosen inside the arrival distribution so some lanes fail and
    // some settle — both branches of the timing pass run.
    for (uint64_t seed : {7u, 8u, 9u}) {
        Netlist nl = randomDag(seed, 12, 260, 24);
        DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
        const double scale = 1.25;
        CompiledDta comp(nl, annot, scale);
        LevelizedDta lev(nl, annot, scale);

        // Probe the arrival scale with one scalar run per corner.
        Rng probeRng(seed * 100 + 1);
        auto probe = randomLanes(probeRng, nl.numInputs(), 8);
        double maxArr = 0.0;
        for (unsigned l = 0; l < 8; ++l)
            maxArr = std::max(
                maxArr,
                lev.run(probe.prev[l], probe.cur[l], 1e9).maxArrivalPs);
        ASSERT_GT(maxArr, 0.0);
        const double cap = maxArr * 0.55;

        for (unsigned lanes : {1u, 63u, 64u, 65u, 256u, 512u}) {
            Rng rng(seed * 100 + lanes);
            auto v = randomLanes(rng, nl.numInputs(), lanes);
            char what[64];
            std::snprintf(what, sizeof(what), "seed %llu lanes %u",
                          static_cast<unsigned long long>(seed), lanes);
            expectMatchesOracle(nl, annot, scale, comp, v, cap, lanes,
                                what);
        }
    }
}

TEST(CompiledDta, WideOutputBusBeyond64Bits)
{
    // More than 64 flat output bits: the per-output plane loop and the
    // error-mask extraction must index word-major correctly past the
    // first uint64 of outputs.
    Netlist nl = randomDag(21, 10, 300, 90);
    ASSERT_GT(nl.numOutputBits(), 64u);
    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    CompiledDta comp(nl, annot, 1.2);
    LevelizedDta lev(nl, annot, 1.2);

    Rng probeRng(2100);
    auto probe = randomLanes(probeRng, nl.numInputs(), 4);
    double maxArr = 0.0;
    for (unsigned l = 0; l < 4; ++l)
        maxArr = std::max(
            maxArr,
            lev.run(probe.prev[l], probe.cur[l], 1e9).maxArrivalPs);
    const double cap = maxArr * 0.6;

    for (unsigned lanes : {64u, 512u}) {
        Rng rng(2100 + lanes);
        auto v = randomLanes(rng, nl.numInputs(), lanes);
        char what[48];
        std::snprintf(what, sizeof(what), "wide-out lanes %u", lanes);
        expectMatchesOracle(nl, annot, 1.2, comp, v, cap, lanes, what);
    }
}

TEST(CompiledDta, CaptureEdgeInsideLastGateDelay)
{
    // The capture time sits 1e-9 ps below one lane's exact arrival:
    // that lane must fail with an arrival reported to the last ulp,
    // while an infinite capture time keeps every lane clean. This is
    // the double-precision edge the float arrival drift used to lose.
    Netlist nl = randomDag(33, 8, 200, 16);
    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    const double scale = 1.15;
    CompiledDta comp(nl, annot, scale);
    LevelizedDta lev(nl, annot, scale);

    const unsigned lanes = 96; // two words, partially filled
    Rng rng(3300);
    auto v = randomLanes(rng, nl.numInputs(), lanes);

    // Pick the lane with the largest exact arrival and straddle it.
    double worst = 0.0;
    unsigned worstLane = 0;
    for (unsigned l = 0; l < lanes; ++l) {
        double a = lev.run(v.prev[l], v.cur[l], 1e9).maxArrivalPs;
        if (a > worst) {
            worst = a;
            worstLane = l;
        }
    }
    ASSERT_GT(worst, 0.0);
    const double edge = worst - 1e-9;

    expectMatchesOracle(nl, annot, scale, comp, v, edge, lanes,
                        "capture edge");
    // And directly: the worst lane is faulty with the exact arrival.
    const unsigned W = CompiledDta::wordsFor(lanes);
    std::vector<uint64_t> pp, cp, gp;
    packPlanes(v.prev, W, pp);
    packPlanes(v.cur, W, cp);
    gp = cp;
    const WideBatch &wb = comp.runBatch(pp, cp, gp, edge, lanes);
    EXPECT_DOUBLE_EQ(wb.maxArrivalPs[worstLane], worst);

    // No lane fails at an unreachable capture time.
    const WideBatch &clean = comp.runBatch(pp, cp, gp, 1e9, lanes);
    const size_t nOut = nl.numOutputBits();
    for (size_t o = 0; o < nOut; ++o)
        for (unsigned w = 0; w < W; ++w)
            EXPECT_EQ(clean.captured[o * W + w],
                      clean.settled[o * W + w])
                << "out " << o << " word " << w;
}

TEST(CompiledDta, IsaLevelsBitIdentical)
{
    // Every compiled ISA level must produce the same planes and the
    // same arrival doubles — vector width is throughput-only. The
    // portable level is the baseline; flipping mid-run is safe because
    // engines re-resolve their kernel tables per batch.
    Netlist nl = randomDag(55, 10, 240, 32);
    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    CompiledDta comp(nl, annot, 1.2);

    const unsigned lanes = CompiledDta::kMaxLanes;
    const unsigned W = CompiledDta::wordsFor(lanes);
    Rng rng(5500);
    auto v = randomLanes(rng, nl.numInputs(), lanes);
    std::vector<uint64_t> pp, cp, gp;
    packPlanes(v.prev, W, pp);
    packPlanes(v.cur, W, cp);
    gp = cp;
    const double cap = 300.0;

    simd::setActiveIsa(simd::Isa::Portable);
    ASSERT_EQ(simd::activeIsa(), simd::Isa::Portable);
    const WideBatch &base = comp.runBatch(pp, cp, gp, cap, lanes);
    std::vector<uint64_t> settled = base.settled;
    std::vector<uint64_t> captured = base.captured;
    std::vector<uint64_t> golden = base.golden;
    std::vector<double> arrivals = base.maxArrivalPs;

    for (simd::Isa isa : {simd::Isa::Avx2, simd::Isa::Avx512}) {
        if (!simd::isaCompiled(isa))
            continue;
        simd::setActiveIsa(isa);
        if (simd::activeIsa() != isa)
            continue; // CPU clamp: level not executable here
        const WideBatch &wb = comp.runBatch(pp, cp, gp, cap, lanes);
        EXPECT_EQ(wb.settled, settled) << simd::isaName(isa);
        EXPECT_EQ(wb.captured, captured) << simd::isaName(isa);
        EXPECT_EQ(wb.golden, golden) << simd::isaName(isa);
        ASSERT_EQ(wb.maxArrivalPs.size(), arrivals.size());
        for (size_t l = 0; l < arrivals.size(); ++l)
            ASSERT_DOUBLE_EQ(wb.maxArrivalPs[l], arrivals[l])
                << simd::isaName(isa) << " lane " << l;
    }
    simd::resetActiveIsa();
}

TEST(CompiledDta, FpuStagesReuseArrivalRowsAndMatchOracle)
{
    // Every stage of all 10 units, lowered at VR15 and VR20 for the
    // core's capture time. Arrival rows are allocated by live range,
    // so a stage needs only its peak live rows (one row per timing
    // node would take up to 6,709 on fpu-div.d). Each stage replays a
    // real operand stream — stage 0 gets random ops of the unit, each
    // later stage the previous stage's settled outputs — at 1, 63, 64,
    // 65 and 512 lanes, and settled, captured and error bits must
    // equal the scalar LevelizedDta oracle lane by lane.
    constexpr unsigned kLanes = CompiledDta::kMaxLanes;
    constexpr uint32_t kMaxRows = 320;
    const double cap = core().captureTimePs();
    uint64_t errors = 0, errorsViaReusedRows = 0;

    for (double vr : {kVR15, kVR20}) {
        const double scale = VoltageModel{}.delayFactorAtReduction(vr);
        for (unsigned u = 0; u < fpu::kNumFpuUnits; ++u) {
            const auto kind = static_cast<fpu::FpuUnitKind>(u);
            const fpu::FpuUnit &unit = core().unit(kind);
            std::vector<FpuOp> ops;
            for (unsigned o = 0; o < fpu::kNumFpuOps; ++o)
                if (fpu::unitFor(static_cast<FpuOp>(o)) == kind)
                    ops.push_back(static_cast<FpuOp>(o));
            // vecs[k] -> vecs[k+1] is lane k's transition.
            Rng rng(1000 + u);
            std::vector<std::vector<bool>> vecs;
            for (unsigned k = 0; k <= kLanes; ++k) {
                FpuOp op = ops[k % ops.size()];
                uint64_t a, b;
                randomOperands(op, rng, a, b);
                vecs.push_back(unit.packInputs(op, a, b));
            }

            for (size_t s = 0; s < unit.numStages(); ++s) {
                const Netlist &nl = unit.stage(s);
                const DelayAnnotation &annot = unit.stageAnnotation(s);
                SCOPED_TRACE(testing::Message()
                             << unit.name() << " stage " << s << " VR"
                             << vr * 100);
                CompiledDta comp(nl, annot, scale);
                comp.prepare(cap);
                const DtaProgram &p = *comp.program();
                EXPECT_LE(p.numArrivalRows, kMaxRows);

                // Replay the timing pass's write order: every read of
                // a row (timing fanins, then the capture edge) must
                // see the row last written by the node it names, or a
                // reused row would hand a reader someone else's
                // arrivals.
                std::vector<uint32_t> writerTrow(p.numArrivalRows,
                                                 kDtaNone);
                std::vector<unsigned> writers(p.numArrivalRows, 0);
                for (const DtaTimingNode &nd : p.tnodes) {
                    for (uint32_t f = 0; f < nd.faninCount; ++f) {
                        const DtaTimingFanin &fan =
                            p.tfanins[nd.faninBegin + f];
                        if (fan.arow != 0) {
                            ASSERT_EQ(writerTrow[fan.arow], fan.trow);
                        }
                    }
                    writerTrow[nd.arow] = nd.trow;
                    ++writers[nd.arow];
                }
                std::vector<uint8_t> outReused(nl.numOutputBits(), 0);
                for (const DtaTimingOut &o : p.touts) {
                    if (o.arow == 0)
                        continue;
                    ASSERT_EQ(writerTrow[o.arow], o.trow);
                    outReused[o.outIdx] = writers[o.arow] > 1;
                }

                LevelizedDta lev(nl, annot, scale);
                std::vector<DtaResult> ref;
                for (unsigned l = 0; l < kLanes; ++l)
                    ref.push_back(lev.run(vecs[l], vecs[l + 1], cap));
                for (unsigned lanes : {1u, 63u, 64u, 65u, kLanes}) {
                    const unsigned W = CompiledDta::wordsFor(lanes);
                    std::vector<std::vector<bool>> prev(
                        vecs.begin(), vecs.begin() + lanes);
                    std::vector<std::vector<bool>> cur(
                        vecs.begin() + 1, vecs.begin() + lanes + 1);
                    std::vector<uint64_t> pp, cp;
                    packPlanes(prev, W, pp);
                    packPlanes(cur, W, cp);
                    const WideBatch &wb =
                        comp.runBatch(pp, cp, cp, cap, lanes);
                    for (unsigned l = 0; l < lanes; ++l) {
                        const unsigned w = l / 64, bit = l % 64;
                        for (size_t o = 0; o < ref[l].settled.size();
                             ++o) {
                            bool settled =
                                (wb.settled[o * W + w] >> bit) & 1;
                            bool captured =
                                (wb.captured[o * W + w] >> bit) & 1;
                            ASSERT_EQ(settled, ref[l].settled[o])
                                << "lanes " << lanes << " lane " << l
                                << " out " << o;
                            ASSERT_EQ(captured, ref[l].captured[o])
                                << "lanes " << lanes << " lane " << l
                                << " out " << o;
                            if (lanes == kLanes &&
                                captured != settled) {
                                ++errors;
                                errorsViaReusedRows += outReused[o];
                            }
                        }
                    }
                }

                // The next stage sees this stage's settled outputs.
                for (auto &v : vecs)
                    v = flattenOutputs(nl, evaluate(nl, v));
            }
        }
    }
    // The differential only means something if late lanes occur, and
    // some of them must reach the capture edge through arrival rows
    // that earlier nodes of the same pass already used.
    EXPECT_GT(errors, 0u);
    EXPECT_GT(errorsViaReusedRows, 0u);
}

TEST(CompiledDta, CampaignInvariantAcrossLanesThreads)
{
    // Whole-campaign identity: every lane-width x thread combination
    // accumulates byte-identical statistics (and so a byte-identical
    // BER CSV) to the one-lane scalar oracle. kDtaShardOps ops/type
    // fills exactly one shard, so the 256/512-lane cells genuinely
    // form wide batches.
    auto &c = core();
    size_t pt = vr20Point();
    constexpr uint64_t kPerOp = kDtaShardOps;

    auto run = [&](unsigned lanes, unsigned threads) {
        setDtaLanes(lanes);
        ThreadPool pool(threads);
        Rng rng(42);
        auto stats = runRandomCampaign(c, pt, kPerOp, rng, &pool);
        setDtaLanes(0);
        return stats;
    };

    auto ref = run(1, 1);
    EXPECT_EQ(ref.totalOps(), kPerOp * fpu::kNumFpuOps);
    EXPECT_GT(ref.totalFaulty(), 0u);

    struct Config
    {
        unsigned lanes, threads;
    };
    for (Config cfg : {Config{1, 2}, Config{64, 1}, Config{64, 2},
                       Config{256, 1}, Config{512, 1}, Config{512, 2}}) {
        auto got = run(cfg.lanes, cfg.threads);
        char what[64];
        std::snprintf(what, sizeof(what), "lanes=%u threads=%u",
                      cfg.lanes, cfg.threads);
        expectIdenticalStats(got, ref, what);
    }
}

TEST(CompiledDta, PortableFallbackCampaignCsvIdentical)
{
    // The CPUID-dispatch contract: forcing the portable kernels must
    // leave whole-campaign outputs byte-identical to the best ISA the
    // machine runs — the SIMD switch is invisible in the results.
    auto &c = core();
    size_t pt = vr20Point();

    auto run = [&] {
        Rng rng(44);
        return runRandomCampaign(c, pt, kDtaShardOps, rng);
    };

    simd::resetActiveIsa(); // best level the build + CPU support
    auto best = run();
    simd::setActiveIsa(simd::Isa::Portable);
    ASSERT_EQ(simd::activeIsa(), simd::Isa::Portable);
    auto portable = run();
    simd::resetActiveIsa();

    EXPECT_GT(best.totalFaulty(), 0u);
    expectIdenticalStats(portable, best, "portable vs best ISA");
}
