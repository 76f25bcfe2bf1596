/**
 * Cross-engine DTA equivalence suite (ctest label tier1dta).
 *
 * The contract under test: the compiled batched engine, the scalar
 * levelized engine, and the exact event-driven reference agree where
 * they must — mixed-op blocks on a shared unit included — and
 * campaigns, including unit-demultiplexed trace replays, produce
 * bit-identical statistics at every lane width and thread count, with
 * one lane (the scalar LevelizedDta path) as the oracle. Also pins the
 * float->double arrival precision fix and the deterministic mask-pool
 * reservoir.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "circuit/builders.hh"
#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "fpu/fpu_core.hh"
#include "models/error_models.hh"
#include "timing/ber_csv.hh"
#include "timing/dta_campaign.hh"
#include "util/rng.hh"
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

/** A deeper reduction than the paper's grid, where AddD/SubD fail
 * too (at VR20 only the multiplier does). */
size_t
vr30Point()
{
    static size_t p = core().addOperatingPoint(
        VoltageModel{}.delayFactorAtReduction(0.30));
    return p;
}

/** Deep inverter chain: every gate adds one delay term, so arrival is a
 * long sequential sum — exactly where float accumulation diverges. */
Netlist
chainNetlist(unsigned depth)
{
    Netlist nl("chain");
    NetId n = nl.addInput("a");
    for (unsigned i = 0; i < depth; ++i)
        n = nl.addGate(CellKind::Not, n);
    nl.addOutputBus("out", {n});
    return nl;
}

/** Compare every per-op statistic two campaigns accumulated. */
void
expectIdenticalStats(const CampaignStats &got, const CampaignStats &ref,
                     const char *what)
{
    EXPECT_EQ(got.engineFaults, ref.engineFaults) << what;
    EXPECT_EQ(got.interrupted, ref.interrupted) << what;
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
    // The figure-artifact view of the same statistics must be
    // byte-identical too (this is what fig7/fig8 --csv emit).
    EXPECT_EQ(berCsv(got), berCsv(ref)) << what;
}

} // namespace

TEST(DtaEquivalence, EnginesAgreeOnSettledValues)
{
    // Functional (settled) outputs are exact in all three engines.
    Netlist nl("mix");
    Builder bld(nl);
    Bus ia = nl.addInputBus("a", 6);
    Bus ib = nl.addInputBus("b", 6);
    auto add = bld.rippleAdd(ia, ib);
    Bus out = add.sum;
    out.push_back(add.carry);
    nl.addOutputBus("s", out);

    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(nl, annot, 1.3);
    LevelizedDta lev(nl, annot, 1.3);
    CompiledDta comp(nl, annot, 1.3);

    Rng rng(40);
    for (int round = 0; round < 32; ++round) {
        std::vector<bool> prev(nl.numInputs()), cur(nl.numInputs());
        for (size_t i = 0; i < nl.numInputs(); ++i) {
            prev[i] = rng.next() & 1;
            cur[i] = rng.next() & 1;
        }
        auto re = exact.run(prev, cur, 1e9);
        auto rl = lev.run(prev, cur, 1e9);
        std::vector<uint64_t> pp(nl.numInputs(), 0), cp(nl.numInputs(), 0);
        for (size_t i = 0; i < nl.numInputs(); ++i) {
            pp[i] = prev[i] ? 1 : 0;
            cp[i] = cur[i] ? 1 : 0;
        }
        const auto &rb = comp.runBatch(pp, cp, cp, 1e9, 1);
        for (size_t k = 0; k < re.settled.size(); ++k) {
            ASSERT_EQ(rl.settled[k], re.settled[k]);
            ASSERT_EQ(rb.settled[k] & 1, uint64_t{re.settled[k]});
            ASSERT_EQ(rb.golden[k] & 1, uint64_t{re.settled[k]});
            // No error at an infinite capture time.
            ASSERT_EQ(rl.captured[k], rl.settled[k]);
            ASSERT_EQ(rb.captured[k] & 1, rb.settled[k] & 1);
        }
    }
}

TEST(DtaEquivalence, DeepChainArrivalMatchesExactReference)
{
    // Regression for the float->double arrival fix: with float
    // accumulation a ~2000-deep chain drifts by whole picoseconds from
    // the event-driven reference; with double both engines perform the
    // same sequence of double additions and agree to the last ulp.
    Netlist nl = chainNetlist(2000);
    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(nl, annot, 1.1);
    LevelizedDta lev(nl, annot, 1.1);
    CompiledDta comp(nl, annot, 1.1);

    std::vector<bool> prev{false}, cur{true};
    auto re = exact.run(prev, cur, 1e12);
    auto rl = lev.run(prev, cur, 1e12);
    ASSERT_GT(re.maxArrivalPs, 1e4); // deep chain: a long sum
    EXPECT_DOUBLE_EQ(rl.maxArrivalPs, re.maxArrivalPs);
    // A capture edge inside the last gate delay separates float from
    // double: classify against the exact arrival. Here the chain is
    // capture-risky, so the compiled engine's arrival is exact too —
    // computed through arrival rows reused ~1000 times along the chain.
    double edge = re.maxArrivalPs - 1e-9;
    auto rl2 = lev.run(prev, cur, edge);
    const auto &rb2 = comp.runBatch({0}, {1}, {1}, edge, 1);
    ASSERT_LE(comp.program()->numArrivalRows, 3u);
    EXPECT_NE(rl2.captured[0], rl2.settled[0]);
    EXPECT_EQ((rb2.captured[0] ^ rb2.settled[0]) & 1, 1u);
    EXPECT_DOUBLE_EQ(rb2.maxArrivalPs[0], re.maxArrivalPs);
}

TEST(DtaEquivalence, ExecuteBatchMatchesSequentialExecute)
{
    auto &c = core();
    size_t pt = vr20Point();
    constexpr unsigned kOps = 600;

    Rng rng(41);
    std::vector<uint64_t> a(kOps), b(kOps);
    for (unsigned i = 0; i < kOps; ++i)
        randomOperands(FpuOp::MulD, rng, a[i], b[i]);

    // Reference: sequential scalar stream (history carries across).
    c.reset(pt);
    std::vector<fpu::FpuCore::Exec> ref;
    for (unsigned i = 0; i < kOps; ++i)
        ref.push_back(c.execute(pt, FpuOp::MulD, a[i], b[i]));

    // Same stream cut into batches and scalar interludes: the batch
    // boundary must continue the pipeline history exactly.
    c.reset(pt);
    const std::vector<FpuOp> ops(kOps, FpuOp::MulD);
    std::vector<fpu::FpuCore::Exec> got(kOps);
    unsigned i = 0;
    for (unsigned seg : {5u, 64u, 3u, 64u, 17u, 64u, 2u, 64u, 29u, 64u,
                         64u, 64u, 64u, 32u}) {
        ASSERT_LE(i + seg, kOps);
        if (seg < 8) {
            for (unsigned k = 0; k < seg; ++k)
                got[i + k] = c.execute(pt, FpuOp::MulD, a[i + k], b[i + k]);
        } else {
            c.executeBatch(pt, ops.data() + i, a.data() + i,
                           b.data() + i, seg, got.data() + i);
        }
        i += seg;
    }
    ASSERT_EQ(i, kOps);

    unsigned faulty = 0;
    for (unsigned k = 0; k < kOps; ++k) {
        ASSERT_EQ(got[k].golden, ref[k].golden) << "op " << k;
        ASSERT_EQ(got[k].faulty, ref[k].faulty) << "op " << k;
        ASSERT_EQ(got[k].errorMask, ref[k].errorMask) << "op " << k;
        ASSERT_EQ(got[k].goldenFlags, ref[k].goldenFlags) << "op " << k;
        ASSERT_EQ(got[k].faultyFlags, ref[k].faultyFlags) << "op " << k;
        ASSERT_EQ(got[k].timingError, ref[k].timingError) << "op " << k;
        // Arrival contract of the batch path: exact above the capture
        // time, lower bound below it.
        if (ref[k].maxArrivalPs > c.captureTimePs())
            EXPECT_DOUBLE_EQ(got[k].maxArrivalPs, ref[k].maxArrivalPs)
                << "op " << k;
        else
            EXPECT_LE(got[k].maxArrivalPs, ref[k].maxArrivalPs)
                << "op " << k;
        faulty += ref[k].timingError;
    }
    // The comparison only means something if errors actually occur.
    EXPECT_GT(faulty, 0u);
}

TEST(DtaEquivalence, RandomCampaignInvariantAcrossLanesAndThreads)
{
    auto &c = core();
    size_t pt = vr20Point();
    // 160 ops/type: two full 64-lane blocks plus a partial 32-lane
    // tail block per shard (at 16 lanes: ten full blocks).
    constexpr uint64_t kPerOp = 160;

    auto run = [&](unsigned lanes, unsigned threads) {
        setDtaLanes(lanes);
        ThreadPool pool(threads);
        Rng rng(42);
        auto stats = runRandomCampaign(c, pt, kPerOp, rng, &pool);
        setDtaLanes(0); // back to the default width
        return stats;
    };

    auto ref = run(1, 1);
    EXPECT_EQ(ref.totalOps(), kPerOp * fpu::kNumFpuOps);
    EXPECT_GT(ref.totalFaulty(), 0u);

    struct Config
    {
        unsigned lanes, threads;
    };
    for (Config cfg : {Config{64, 1}, Config{16, 3}, Config{64, 2}}) {
        auto got = run(cfg.lanes, cfg.threads);
        char what[64];
        std::snprintf(what, sizeof(what), "lanes=%u threads=%u",
                      cfg.lanes, cfg.threads);
        expectIdenticalStats(got, ref, what);
    }
}

TEST(DtaEquivalence, TraceCampaignInvariantWithMixedOpRuns)
{
    auto &c = core();
    size_t pt = vr20Point();

    // Mixed-op trace: long MulD runs broken by short AddD/SubD bursts.
    // Windows are demultiplexed by unit, so the MulD entries of a
    // window form full blocks across the bursts and each burst's
    // AddD/SubD entries share one mixed AddSubD block.
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(43);
    auto push = [&](FpuOp op, unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            uint64_t a, b;
            randomOperands(op, rng, a, b);
            trace.push_back({op, a, b});
        }
    };
    for (int block = 0; block < 8; ++block) {
        push(FpuOp::MulD, 130);
        push(FpuOp::AddD, 5);
        push(FpuOp::SubD, 3);
    }

    auto run = [&](unsigned lanes, unsigned threads) {
        setDtaLanes(lanes);
        ThreadPool pool(threads);
        auto stats = runTraceCampaign(c, pt, trace, trace.size(), &pool);
        setDtaLanes(0);
        return stats;
    };

    auto ref = run(1, 1);
    EXPECT_EQ(ref.totalOps(), trace.size());
    EXPECT_GT(ref.totalFaulty(), 0u);
    auto got64 = run(64, 1);
    expectIdenticalStats(got64, ref, "trace lanes=64 threads=1");
    auto got64t = run(64, 2);
    expectIdenticalStats(got64t, ref, "trace lanes=64 threads=2");
}

TEST(DtaEquivalence, MixedOpExecuteBatchMatchesSequentialExecute)
{
    // AddD and SubD share the AddSubD unit, so one block may alternate
    // them lane by lane. The block must equal the same ops run through
    // execute() one at a time from a fresh point — per lane, and in
    // the pipeline history it leaves behind, which the probe ops
    // after the block read.
    auto &c = core();
    size_t pt = vr30Point();
    constexpr unsigned kOps = 200, kProbe = 6;

    Rng rng(45);
    std::vector<FpuOp> ops(kOps + kProbe);
    std::vector<uint64_t> a(kOps + kProbe), b(kOps + kProbe);
    for (unsigned i = 0; i < ops.size(); ++i) {
        ops[i] = i % 2 ? FpuOp::SubD : FpuOp::AddD;
        randomOperands(ops[i], rng, a[i], b[i]);
    }
    auto sequential = [&] {
        c.reset(pt);
        std::vector<fpu::FpuCore::Exec> out;
        for (unsigned i = 0; i < ops.size(); ++i)
            out.push_back(c.execute(pt, ops[i], a[i], b[i]));
        return out;
    };
    auto blocked = [&](unsigned lanes) {
        c.reset(pt);
        std::vector<fpu::FpuCore::Exec> out(ops.size());
        for (unsigned i = 0; i < kOps;) {
            unsigned n = std::min(lanes, kOps - i);
            c.executeBatch(pt, ops.data() + i, a.data() + i,
                           b.data() + i, n, out.data() + i);
            i += n;
        }
        for (unsigned i = kOps; i < ops.size(); ++i)
            out[i] = c.execute(pt, ops[i], a[i], b[i]);
        return out;
    };

    const auto ref = sequential();
    unsigned faulty = 0;
    for (const auto &e : ref)
        faulty += e.timingError;
    EXPECT_GT(faulty, 0u);

    for (unsigned lanes : {64u, 7u, 512u, 1u}) {
        const auto got = blocked(lanes);
        for (unsigned k = 0; k < ops.size(); ++k) {
            SCOPED_TRACE(testing::Message()
                         << "lanes " << lanes << " op " << k);
            ASSERT_EQ(got[k].golden, ref[k].golden);
            ASSERT_EQ(got[k].faulty, ref[k].faulty);
            ASSERT_EQ(got[k].errorMask, ref[k].errorMask);
            ASSERT_EQ(got[k].goldenFlags, ref[k].goldenFlags);
            ASSERT_EQ(got[k].faultyFlags, ref[k].faultyFlags);
            ASSERT_EQ(got[k].timingError, ref[k].timingError);
        }
    }

    // A block must stay on one unit.
    const FpuOp cross[2] = {FpuOp::AddD, FpuOp::MulD};
    fpu::FpuCore::Exec out[2];
    EXPECT_DEATH(c.executeBatch(pt, cross, a.data(), b.data(), 2, out),
                 "does not run on unit");
}

TEST(DtaEquivalence, TraceCampaignDemuxInvariantAcrossLanesThreads)
{
    auto &c = core();
    size_t pt = vr30Point();

    // Three windows: all 12 ops round-robin (AddD/SubD alternate on
    // the AddSubD unit), then a window of alternating AddD/SubD in
    // which every other unit occurs exactly once (single-lane
    // blocks), then a partial round-robin window.
    const FpuOp singles[] = {FpuOp::MulD, FpuOp::DivD, FpuOp::I2FD,
                             FpuOp::F2ID, FpuOp::SubS, FpuOp::MulS,
                             FpuOp::DivS, FpuOp::I2FS, FpuOp::F2IS};
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(46);
    auto push = [&](FpuOp op) {
        uint64_t a, b;
        randomOperands(op, rng, a, b);
        trace.push_back({op, a, b});
    };
    for (uint64_t i = 0; i < kDtaShardOps; ++i)
        push(static_cast<FpuOp>(i % fpu::kNumFpuOps));
    for (uint64_t i = 0; i < kDtaShardOps; ++i) {
        uint64_t s = i / 50;
        if (i % 50 == 25 && s < std::size(singles))
            push(singles[s]);
        else
            push(i % 2 ? FpuOp::SubD : FpuOp::AddD);
    }
    for (uint64_t i = 0; i < 150; ++i)
        push(static_cast<FpuOp>((i * 5) % fpu::kNumFpuOps));

    auto dir = std::filesystem::temp_directory_path() /
               ("tea_dta_demux_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    auto bytes = [&](const CampaignStats &st) {
        auto path = (dir / "stats").string();
        EXPECT_TRUE(models::saveCampaignStats(path, st));
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    auto run = [&](unsigned lanes, unsigned threads) {
        setDtaLanes(lanes);
        ThreadPool pool(threads);
        auto stats = runTraceCampaign(c, pt, trace, trace.size(), &pool);
        setDtaLanes(0);
        return stats;
    };

    // Oracle: each window replayed in trace order through the scalar
    // execute() path, from clean history, keyed and merged the way
    // the sharded campaign keys and merges its windows.
    CampaignStats ref;
    for (uint64_t w = 0; w * kDtaShardOps < trace.size(); ++w) {
        c.reset(pt);
        DtaCampaign window(c, pt, w);
        uint64_t end = std::min<uint64_t>((w + 1) * kDtaShardOps,
                                          trace.size());
        for (uint64_t i = w * kDtaShardOps; i < end; ++i)
            window.execute(trace[i].op, trace[i].a, trace[i].b);
        ref.merge(window.stats());
    }
    EXPECT_EQ(ref.totalOps(), trace.size());
    EXPECT_GT(ref.of(FpuOp::AddD).faulty, 0u);
    EXPECT_GT(ref.of(FpuOp::SubD).faulty, 0u);
    EXPECT_GT(ref.of(FpuOp::MulD).faulty, 0u);
    const std::string refBytes = bytes(ref);

    for (unsigned lanes : {1u, 2u, 7u, 64u, CompiledDta::kMaxLanes}) {
        for (unsigned threads : {1u, 3u}) {
            auto got = run(lanes, threads);
            char what[64];
            std::snprintf(what, sizeof(what), "lanes=%u threads=%u",
                          lanes, threads);
            expectIdenticalStats(got, ref, what);
            std::string gotBytes = bytes(got);
            EXPECT_TRUE(gotBytes.size() == refBytes.size() &&
                        std::memcmp(gotBytes.data(), refBytes.data(),
                                    refBytes.size()) == 0)
                << what;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(DtaReservoir, CapBoundsPoolAndKeepsSmallestKeys)
{
    constexpr size_t kStream = 6000;
    OpErrorStats s;
    std::vector<std::pair<uint64_t, uint64_t>> all; // (key, mask)
    for (size_t i = 0; i < kStream; ++i) {
        uint64_t key = maskPriority(5, 2, i);
        uint64_t mask = (i * 0x9e3779b97f4a7c15ULL) | 1;
        s.addMask(mask, key);
        all.emplace_back(key, mask);
    }
    ASSERT_EQ(s.maskPool.size(), OpErrorStats::kMaskPoolCap);
    ASSERT_EQ(s.maskKeys.size(), OpErrorStats::kMaskPoolCap);

    // Content = the kMaskPoolCap smallest (key, mask) pairs.
    std::sort(all.begin(), all.end());
    all.resize(OpErrorStats::kMaskPoolCap);
    std::vector<std::pair<uint64_t, uint64_t>> kept;
    for (size_t i = 0; i < s.maskPool.size(); ++i)
        kept.emplace_back(s.maskKeys[i], s.maskPool[i]);
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(kept, all);
}

TEST(DtaReservoir, MergeIsSplitInvariant)
{
    constexpr size_t kStream = 6000;
    auto feed = [](OpErrorStats &s, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            s.addMask((i * 0x9e3779b97f4a7c15ULL) | 1,
                      maskPriority(9, 4, i));
    };
    auto sortedPairs = [](const OpErrorStats &s) {
        std::vector<std::pair<uint64_t, uint64_t>> v;
        for (size_t i = 0; i < s.maskPool.size(); ++i)
            v.emplace_back(s.maskKeys[i], s.maskPool[i]);
        std::sort(v.begin(), v.end());
        return v;
    };

    OpErrorStats whole;
    feed(whole, 0, kStream);
    for (size_t cut : {size_t{100}, size_t{2500}, size_t{5900}}) {
        OpErrorStats a, b;
        feed(a, 0, cut);
        feed(b, cut, kStream);
        a.merge(b);
        ASSERT_EQ(a.maskPool.size(), OpErrorStats::kMaskPoolCap);
        EXPECT_EQ(sortedPairs(a), sortedPairs(whole)) << "cut " << cut;
    }
}

TEST(DtaReservoir, SealLoadedPoolPreservesOrder)
{
    OpErrorStats s;
    s.maskPool = {0x50, 0x07, 0x90}; // cache-load path: masks only
    s.sealLoadedPool();
    EXPECT_EQ(s.maskPool, (std::vector<uint64_t>{0x50, 0x07, 0x90}));
    EXPECT_EQ(s.maskKeys, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(DtaLanes, OverrideClampsAndRestores)
{
    EXPECT_EQ(dtaLanes(), CompiledDta::kMaxLanes); // the default
    setDtaLanes(4096); // clamped to the engine maximum
    EXPECT_EQ(dtaLanes(), CompiledDta::kMaxLanes);
    setDtaLanes(7);
    EXPECT_EQ(dtaLanes(), 7u);
    setDtaLanes(0); // back to the default
    EXPECT_EQ(dtaLanes(), CompiledDta::kMaxLanes);
}
