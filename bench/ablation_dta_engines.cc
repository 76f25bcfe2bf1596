/**
 * Ablation (ours) — the full DTA engine ladder: exact event-driven
 * vs. fast levelized vs. compiled SIMD-wide batches. Agreement on
 * settled values (must be total), on error detection (which ops each
 * engine flags, and which only one of them flags), on dynamic arrival
 * estimates, and the speedups that justify each rung for
 * campaign-scale model development. The batched engine must match the
 * levelized oracle bit-for-bit per op — its column ablates pure
 * execution strategy, not semantics.
 *
 * The levelized engine can err in both directions, and each case
 * below is an operating point where the exact engine itself reports
 * timing errors, so the two error sets can be compared at all:
 *  - the DP add/sub unit (alignment and normalization shifters, a
 *    57-bit carry chain) at 50% voltage reduction, where the levelized
 *    engine is path-insensitive: it charges the slowest *changed*
 *    fanin even when a mux masks it, overestimating arrivals;
 *  - the SP multiply array at the same point, where it is
 *    hazard-blind: glitch trains keep the array's outputs toggling
 *    after its one-transition-per-net estimate, underestimating them.
 * (The DP multiply array is too glitchy for exact transport-delay
 * simulation at this scale.)
 */

#include <chrono>

#include "bench_common.hh"
#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "fpu/fpu_core.hh"
#include "timing/dta_campaign.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::fpu;

namespace {

struct Case
{
    FpuOp op;
    double reduction;
};

const Case kCases[] = {
    {FpuOp::AddD, 0.50},
    {FpuOp::MulS, 0.50},
};

constexpr int kOps = 1000;

struct Measured
{
    std::string name;
    int settledMismatch = 0, compMismatch = 0;
    int exactErr = 0, fastErr = 0, bothErr = 0;
    tea::StreamingStats arrRatio;
    double exactMs = 0, fastMs = 0, compMs = 0;

    int exactOnly() const { return exactErr - bothErr; }
    int fastOnly() const { return fastErr - bothErr; }
};

Measured
measure(const Case &c)
{
    circuit::VoltageModel vm;
    double scale = vm.delayFactorAtReduction(c.reduction);
    Measured m;
    m.name = std::string(fpuOpName(c.op)) + " VR" +
             std::to_string(static_cast<int>(c.reduction * 100 + 0.5));

    FpuCore exactCore, fastCore;
    size_t pe = exactCore.addOperatingPoint(scale, /*exact=*/true);
    size_t pf = fastCore.addOperatingPoint(scale, /*exact=*/false);

    Rng rng(42);
    std::vector<std::pair<uint64_t, uint64_t>> ops;
    for (int i = 0; i < kOps; ++i) {
        uint64_t a, b;
        timing::randomOperands(c.op, rng, a, b);
        ops.push_back({a, b});
    }

    auto t0 = std::chrono::steady_clock::now();
    std::vector<FpuCore::Exec> exactRes;
    for (auto [a, b] : ops)
        exactRes.push_back(exactCore.execute(pe, c.op, a, b));
    auto t1 = std::chrono::steady_clock::now();
    std::vector<FpuCore::Exec> fastRes;
    for (auto [a, b] : ops)
        fastRes.push_back(fastCore.execute(pf, c.op, a, b));
    auto t2 = std::chrono::steady_clock::now();

    // Batched engine: the same op stream through executeBatch blocks,
    // which reproduce sequential pipeline history exactly. Built and
    // warmed outside the timed region, so program compilation does
    // not distort the throughput row.
    FpuCore batchCore;
    size_t pc = batchCore.addOperatingPoint(scale);
    auto runBatched = [&](unsigned lanes) {
        batchCore.reset(pc); // sequential-from-scratch every run
        std::vector<FpuCore::Exec> res(kOps);
        std::vector<FpuOp> opv(lanes, c.op);
        std::vector<uint64_t> av(lanes), bv(lanes);
        for (int i = 0; i < kOps;) {
            unsigned n =
                std::min<unsigned>(lanes, static_cast<unsigned>(kOps - i));
            for (unsigned l = 0; l < n; ++l) {
                av[l] = ops[i + l].first;
                bv[l] = ops[i + l].second;
            }
            batchCore.executeBatch(pc, opv.data(), av.data(), bv.data(),
                                   n, res.data() + i);
            i += n;
        }
        return res;
    };
    // Untimed warmup compiles the programs and sizes scratch.
    runBatched(circuit::CompiledDta::kMaxLanes);
    auto t3 = std::chrono::steady_clock::now();
    auto compRes = runBatched(circuit::CompiledDta::kMaxLanes);
    auto t4 = std::chrono::steady_clock::now();

    for (int i = 0; i < kOps; ++i) {
        const auto &re = exactRes[i];
        const auto &rl = fastRes[i];
        if (re.golden != rl.golden)
            ++m.settledMismatch;
        m.exactErr += re.timingError;
        m.fastErr += rl.timingError;
        m.bothErr += re.timingError && rl.timingError;
        if (re.maxArrivalPs > 1.0)
            m.arrRatio.sample(rl.maxArrivalPs / re.maxArrivalPs);
        // The batched engine must be bit-for-bit the levelized
        // oracle per op (arrivals excluded: its cone-only estimate is
        // exact for faulty ops but a lower bound otherwise).
        const auto &x = compRes[i];
        m.compMismatch +=
            !(x.golden == rl.golden && x.faulty == rl.faulty &&
              x.errorMask == rl.errorMask &&
              x.goldenFlags == rl.goldenFlags &&
              x.faultyFlags == rl.faultyFlags &&
              x.timingError == rl.timingError);
    }

    auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    m.exactMs = ms(t0, t1);
    m.fastMs = ms(t1, t2);
    m.compMs = ms(t3, t4);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    bench::banner("DTA engine ablation: exact vs levelized",
                  "DESIGN.md ablation (methodology validation)");

    std::vector<Measured> all;
    for (const Case &c : kCases)
        all.push_back(measure(c));

    Table agree({"case", "ops", "settled mismatches",
                 "compiled vs levelized", "exact errors",
                 "levelized errors", "both", "exact only",
                 "levelized only", "lev/exact arrival"});
    Table speed({"case", "exact (ms)", "levelized (ms)", "compiled (ms)",
                 "levelized speedup", "compiled speedup"});
    for (const Measured &m : all) {
        agree.addRow({m.name, std::to_string(kOps),
                      std::to_string(m.settledMismatch),
                      std::to_string(m.compMismatch),
                      std::to_string(m.exactErr),
                      std::to_string(m.fastErr),
                      std::to_string(m.bothErr),
                      std::to_string(m.exactOnly()),
                      std::to_string(m.fastOnly()),
                      Table::num(m.arrRatio.mean(), 2) + " (sd " +
                          Table::num(m.arrRatio.stddev(), 2) + ")"});
        speed.addRow({m.name, Table::num(m.exactMs, 1),
                      Table::num(m.fastMs, 1), Table::num(m.compMs, 1),
                      Table::num(m.exactMs / m.fastMs, 1) + "x",
                      Table::num(m.exactMs / m.compMs, 1) + "x"});
    }
    std::printf("%s\n%s\n", agree.render().c_str(),
                speed.render().c_str());

    std::printf("Interpretation: settled values agree bit-exactly (the hard\n"
                "correctness bar), and the compiled engine reproduces the\n"
                "levelized one per op. Error detection differs:\n");
    bool ok = true;
    for (const Measured &m : all) {
        bool over = m.arrRatio.mean() > 1.0;
        std::printf(
            "  %s: levelized arrivals are %.2fx the exact ones on "
            "average, so the levelized engine %s: %d errors only it "
            "flags, %d only the exact engine flags, %d both.\n",
            m.name.c_str(), m.arrRatio.mean(),
            over ? "is pessimistic (path-insensitive: it charges the "
                   "slowest changed fanin even when a mux masks it)"
                 : "is optimistic (hazard-blind: glitch trains keep "
                   "outputs toggling after its estimate)",
            m.fastOnly(), m.exactOnly(), m.bothErr);
        // An ablation at a point where the exact engine reports no
        // error compares nothing; fail instead of printing it.
        ok = ok && m.settledMismatch == 0 && m.compMismatch == 0 &&
             m.exactErr > 0;
    }
    std::printf(
        "The speedup is what makes 100k-op WA-model characterizations\n"
        "tractable — the paper's equivalent trade-off is full ModelSim\n"
        "gate simulation vs statistical sampling.\n");
    return ok ? 0 : 1;
}
