/**
 * @file
 * Pinned timing oracle for the OoO core.
 *
 * Every value in the table below was recorded from the reference
 * pipeline (ROB walks for load disambiguation and writeback) before it
 * was replaced by the store queue and busy set. Any change to the
 * core's per-cycle bookkeeping must reproduce all of them: the full
 * `OooSim::Result` plus a CRC-32 of the output signature, for the seven
 * paper workloads (seed 7, scale 1), golden and seeded AnyDest/FpOp
 * plans, on the default machine and on 8-, 100- and 192-entry ROBs
 * (non-power-of-two rings and multi-word busy sets).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::sim;

namespace {

/** Plan ids: golden, then the seeded plans of `makePlan`. */
constexpr int kGolden = -1;
constexpr int kNumPlans = 3;
/** Bounds golden runs (the longest pinned one is ~0.64 M cycles), so a
 *  pipeline that deadlocks fails the oracle instead of hanging it. */
constexpr uint64_t kGoldenCycleLimit = 10'000'000;

/**
 * One run: (workload, ROB size, plan) and what it produced. `status`
 * and `trap` are the `OooSim::Status` / `TrapKind` enumerator values.
 */
struct Pinned
{
    const char *workload;
    unsigned robSize;
    int plan;
    int status;
    int trap;
    uint64_t cycles, committed, executed;
    uint64_t injApplied, injWrongPath, mispredicts;
    uint64_t cacheMisses, cacheAccesses, squashed;
    uint32_t sigCrc;
};

// clang-format off
const std::vector<Pinned> kPinned = {
    {"sobel", 64, -1, 0, 0, 73552, 24090, 24090, 0, 0, 27, 139, 4382, 147, 0xc0fc893au},
    {"sobel", 64, 0, 1, 1, 13397, 4369, 4420, 1, 0, 7, 31, 796, 39, 0x1f53b8bcu},
    {"sobel", 64, 1, 0, 0, 73552, 24090, 24090, 4, 0, 27, 139, 4382, 147, 0x7bb54cf3u},
    {"sobel", 64, 2, 0, 0, 73552, 24090, 24090, 2, 0, 27, 139, 4382, 147, 0x157931acu},
    {"sobel", 8, -1, 0, 0, 83506, 24090, 24090, 0, 0, 27, 139, 4382, 12, 0xc0fc893au},
    {"sobel", 8, 0, 0, 0, 83401, 24074, 24075, 4, 0, 28, 139, 4382, 18, 0xb8786391u},
    {"sobel", 100, -1, 0, 0, 73552, 24090, 24090, 0, 0, 27, 139, 4382, 146, 0xc0fc893au},
    {"sobel", 100, 1, 0, 0, 73552, 24090, 24090, 4, 0, 27, 139, 4382, 146, 0x7bb54cf3u},
    {"sobel", 192, -1, 0, 0, 73552, 24090, 24090, 0, 0, 27, 139, 4382, 146, 0xc0fc893au},
    {"sobel", 192, 2, 0, 0, 73552, 24090, 24090, 2, 0, 27, 139, 4382, 146, 0x157931acu},
    {"cg", 64, -1, 0, 0, 84485, 117122, 117122, 0, 0, 352, 226, 29283, 904, 0xe985e0cfu},
    {"cg", 64, 0, 1, 1, 47082, 61306, 61355, 1, 0, 186, 225, 15334, 425, 0x42aa0a46u},
    {"cg", 64, 1, 0, 0, 84485, 117122, 117122, 4, 0, 352, 226, 29283, 904, 0x76349cd7u},
    {"cg", 64, 2, 1, 1, 3150, 2958, 3012, 1, 0, 11, 58, 758, 15, 0x2d28a891u},
    {"cg", 8, -1, 0, 0, 155268, 117122, 117122, 0, 0, 352, 226, 29283, 1005, 0xe985e0cfu},
    {"cg", 8, 0, 1, 1, 86710, 61297, 61300, 1, 0, 186, 225, 15325, 529, 0x42aa0a46u},
    {"cg", 100, -1, 0, 0, 84476, 117122, 117131, 0, 0, 352, 226, 29283, 380, 0xe985e0cfu},
    {"cg", 100, 1, 0, 0, 84476, 117122, 117131, 4, 0, 352, 226, 29283, 380, 0x76349cd7u},
    {"cg", 192, -1, 0, 0, 84476, 117122, 117131, 0, 0, 352, 226, 29283, 380, 0xe985e0cfu},
    {"cg", 192, 2, 1, 1, 41881, 54008, 54057, 2, 0, 166, 225, 13470, 159, 0xf85e1701u},
    {"k-means", 64, -1, 0, 0, 124374, 100943, 157093, 0, 0, 7873, 99, 31082, 124879, 0x6a686cefu},
    {"k-means", 64, 0, 1, 1, 31230, 23026, 36663, 3, 0, 1837, 99, 7128, 29255, 0x5fdb54feu},
    {"k-means", 64, 1, 0, 0, 120979, 100297, 152984, 4, 2, 8070, 99, 30421, 118539, 0x1332f727u},
    {"k-means", 64, 2, 0, 0, 118945, 96161, 149902, 2, 0, 7531, 99, 29660, 119487, 0xd4aab823u},
    {"k-means", 8, -1, 0, 0, 166880, 100943, 115998, 0, 0, 6433, 99, 23783, 21310, 0x6a686cefu},
    {"k-means", 8, 0, 1, 1, 5918, 3264, 3740, 1, 0, 215, 20, 752, 696, 0x68f92c79u},
    {"k-means", 100, -1, 0, 0, 124330, 100943, 157962, 0, 0, 7870, 99, 31106, 127099, 0x6a686cefu},
    {"k-means", 100, 1, 0, 0, 120954, 100297, 153887, 4, 1, 8067, 99, 30450, 120797, 0x1332f727u},
    {"k-means", 192, -1, 0, 0, 124330, 100943, 158025, 0, 0, 7870, 99, 31106, 127176, 0x6a686cefu},
    {"k-means", 192, 2, 0, 0, 124330, 100943, 158025, 2, 1, 7870, 99, 31106, 127176, 0x6a686cefu},
    {"srad_v1", 64, -1, 0, 0, 49142, 37590, 40210, 0, 0, 185, 175, 8361, 4706, 0x413f7cf8u},
    {"srad_v1", 64, 0, 1, 1, 12027, 8376, 9585, 2, 1, 67, 118, 1523, 2113, 0x8b07727eu},
    {"srad_v1", 64, 1, 0, 0, 52987, 37442, 38137, 4, 0, 125, 175, 8171, 1576, 0x57fc7c70u},
    {"srad_v1", 64, 2, 0, 0, 49452, 37586, 40389, 2, 1, 189, 175, 8376, 4927, 0x76e593b3u},
    {"srad_v1", 8, -1, 0, 0, 74031, 37590, 37740, 0, 0, 176, 175, 8101, 528, 0x413f7cf8u},
    {"srad_v1", 8, 0, 0, 0, 74031, 37590, 37740, 4, 0, 176, 175, 8101, 528, 0x413f7cf8u},
    {"srad_v1", 100, -1, 0, 0, 47206, 37590, 42007, 0, 0, 186, 175, 8616, 6595, 0x413f7cf8u},
    {"srad_v1", 100, 1, 0, 0, 51694, 37442, 38637, 4, 0, 123, 175, 8241, 2119, 0x40b38e51u},
    {"srad_v1", 192, -1, 0, 0, 47018, 37590, 42881, 0, 0, 190, 175, 8761, 8252, 0x413f7cf8u},
    {"srad_v1", 192, 2, 1, 1, 19560, 14513, 18289, 2, 1, 105, 173, 3203, 5781, 0x86dadde9u},
    {"hotspot", 64, -1, 0, 0, 90295, 53375, 53381, 0, 0, 108, 211, 14336, 285, 0x5659fdeeu},
    {"hotspot", 64, 0, 0, 0, 90031, 53219, 53225, 4, 0, 108, 211, 14294, 285, 0x9cf1e7d7u},
    {"hotspot", 64, 1, 0, 0, 90295, 53375, 53381, 4, 0, 108, 211, 14336, 285, 0xf50e2c84u},
    {"hotspot", 64, 2, 0, 0, 90295, 53375, 53381, 2, 0, 108, 211, 14336, 285, 0x565e6b85u},
    {"hotspot", 8, -1, 0, 0, 101286, 53375, 53375, 0, 0, 108, 211, 14336, 34, 0x5659fdeeu},
    {"hotspot", 8, 0, 1, 1, 652, 240, 241, 1, 0, 1, 11, 66, 0, 0xbc139f0cu},
    {"hotspot", 100, -1, 0, 0, 90295, 53375, 53382, 0, 0, 108, 211, 14336, 305, 0x5659fdeeu},
    {"hotspot", 100, 1, 0, 0, 90295, 53375, 53382, 4, 0, 108, 211, 14336, 305, 0xf50e2c84u},
    {"hotspot", 192, -1, 0, 0, 90295, 53375, 53382, 0, 0, 108, 211, 14336, 305, 0x5659fdeeu},
    {"hotspot", 192, 2, 0, 0, 90295, 53375, 53382, 2, 0, 108, 211, 14336, 305, 0x7b77d285u},
    {"is", 64, -1, 0, 0, 189102, 80931, 81969, 0, 0, 2603, 259, 4742, 5841, 0x9ab971beu},
    {"is", 64, 0, 1, 1, 176295, 67040, 67059, 4, 0, 2051, 135, 1183, 2055, 0xbe2f7971u},
    {"is", 64, 1, 0, 0, 189235, 80931, 81947, 4, 0, 2610, 259, 4734, 5850, 0x6259bb39u},
    {"is", 64, 2, 1, 1, 186550, 76935, 77936, 2, 0, 2578, 249, 3615, 5642, 0x92a129feu},
    {"is", 8, -1, 0, 0, 214174, 80931, 81779, 0, 0, 2603, 259, 4692, 2372, 0x9ab971beu},
    {"is", 8, 0, 0, 0, 216397, 79800, 80440, 4, 0, 2416, 259, 4457, 1682, 0xcea64e1eu},
    {"is", 100, -1, 0, 0, 188906, 80931, 81978, 0, 0, 2603, 259, 4741, 5853, 0x9ab971beu},
    {"is", 100, 1, 0, 0, 189032, 80931, 81957, 4, 0, 2609, 259, 4735, 5860, 0x6259bb39u},
    {"is", 192, -1, 0, 0, 188906, 80931, 81978, 0, 0, 2603, 259, 4741, 5853, 0x9ab971beu},
    {"is", 192, 2, 1, 1, 190558, 85037, 86076, 2, 0, 2582, 322, 5239, 5699, 0x9a506088u},
    {"mg", 64, -1, 0, 0, 583858, 281706, 281706, 0, 0, 880, 3114, 88537, 1370, 0x412b6815u},
    {"mg", 64, 0, 0, 0, 583858, 281706, 281706, 4, 0, 880, 3114, 88537, 1370, 0xe15b5b00u},
    {"mg", 64, 1, 0, 0, 583858, 281706, 281706, 4, 0, 880, 3114, 88537, 1370, 0xb26811fdu},
    {"mg", 64, 2, 0, 0, 583858, 281706, 281706, 2, 0, 880, 3114, 88537, 1370, 0x74f51f88u},
    {"mg", 8, -1, 0, 0, 639760, 281706, 281706, 0, 0, 880, 3114, 98329, 799, 0x412b6815u},
    {"mg", 8, 0, 0, 0, 637547, 280372, 280372, 4, 0, 880, 3110, 98070, 800, 0x3a0e1da6u},
    {"mg", 100, -1, 0, 0, 582493, 281706, 281712, 0, 0, 880, 3114, 88537, 1499, 0x412b6815u},
    {"mg", 100, 1, 0, 0, 582493, 281706, 281712, 4, 0, 880, 3114, 88537, 1499, 0xb26811fdu},
    {"mg", 192, -1, 0, 0, 582493, 281706, 281712, 0, 0, 880, 3114, 88537, 1499, 0x412b6815u},
    {"mg", 192, 2, 0, 0, 582493, 281706, 281712, 2, 0, 880, 3114, 88537, 1499, 0x256f2ad3u},
};
// clang-format on

/** The default ROB first, then the resized ones. */
const unsigned kRobSizes[] = {64, 8, 100, 192};

/**
 * Seeded plans for one workload, a pure function of (workload index,
 * plan id) and the functional profile:
 *   0: four AnyDest single-bit flips anywhere in the run;
 *   1: four FpOp single-bit flips on op types the workload executes;
 *   2: two AnyDest flips in the high bits (address-sized corruption,
 *      which often crashes).
 */
InjectionPlan
makePlan(size_t wlIdx, int plan, const FuncSim &fsim,
         uint64_t withDest)
{
    Rng rng(0x0c0ffee0ULL + 131 * wlIdx + static_cast<uint64_t>(plan));
    std::vector<InjectionEvent> events;
    if (plan == 0 || plan == 2) {
        int n = plan == 0 ? 4 : 2;
        for (int i = 0; i < n; ++i) {
            InjectionEvent e{};
            e.kind = InjectionEvent::Kind::AnyDest;
            e.index = rng.nextBounded(withDest);
            unsigned bit = plan == 0
                               ? static_cast<unsigned>(rng.nextBounded(64))
                               : 36 + static_cast<unsigned>(
                                          rng.nextBounded(28));
            e.mask = 1ULL << bit;
            events.push_back(e);
        }
    } else {
        std::vector<std::pair<fpu::FpuOp, uint64_t>> ops;
        for (unsigned i = 0; i < isa::kNumOps; ++i) {
            auto op = static_cast<isa::Op>(i);
            if (isa::isFpArith(op) && fsim.opCount(op) > 0)
                ops.push_back({isa::fpuOpFor(op), fsim.opCount(op)});
        }
        for (int i = 0; i < 4 && !ops.empty(); ++i) {
            const auto &[op, count] = ops[rng.nextBounded(ops.size())];
            InjectionEvent e{};
            e.kind = InjectionEvent::Kind::FpOp;
            e.op = op;
            e.index = rng.nextBounded(count);
            e.mask = 1ULL << rng.nextBounded(64);
            events.push_back(e);
        }
    }
    return InjectionPlan(events);
}

uint32_t
signatureCrc(const OooSim &sim, const workloads::Workload &w)
{
    uint32_t crc = 0;
    for (const auto &sym : w.outputSymbols) {
        auto block = sim.memory().readBlock(w.program.symbol(sym),
                                            w.program.symbolSize(sym));
        crc = crc32(block.data(), block.size(), crc);
    }
    const Console &con = sim.console();
    return crc32(con.data(), con.size() * sizeof(con[0]), crc);
}

/** Run every (workload, ROB size, plan) case once. */
std::vector<Pinned>
measureAll()
{
    std::vector<Pinned> out;
    const auto &names = workloads::workloadNames();
    for (size_t wi = 0; wi < names.size(); ++wi) {
        workloads::Workload w = workloads::buildWorkload(names[wi], 7, 1);
        FuncSim fsim(w.program);
        auto fres = fsim.run();
        EXPECT_EQ(fres.status, FuncSim::Status::Halted) << names[wi];
        uint64_t withDest = 0;
        for (unsigned i = 0; i < isa::kNumOps; ++i) {
            auto op = static_cast<isa::Op>(i);
            if (isa::hasDest(op))
                withDest += fsim.opCount(op);
        }
        for (size_t ri = 0; ri < std::size(kRobSizes); ++ri) {
            unsigned rob = kRobSizes[ri];
            OooConfig cfg;
            cfg.robSize = rob;
            uint64_t goldenCycles = 0;
            for (int plan = kGolden; plan < kNumPlans; ++plan) {
                // The default ROB runs every plan; the others run the
                // golden run plus one plan each, rotating by size.
                if (ri > 0 && plan != kGolden &&
                    plan != static_cast<int>(ri - 1))
                    continue;
                InjectionPlan p =
                    plan == kGolden ? InjectionPlan{}
                                    : makePlan(wi, plan, fsim, withDest);
                OooSim sim(w.program, cfg, std::move(p));
                auto r = sim.run(plan == kGolden ? kGoldenCycleLimit
                                                 : 2 * goldenCycles);
                if (plan == kGolden)
                    goldenCycles = r.cycles;
                out.push_back(Pinned{
                    names[wi].c_str(), rob, plan,
                    static_cast<int>(r.status), static_cast<int>(r.trap),
                    r.cycles, r.committed, r.executed,
                    r.injectionsApplied, r.injectionsOnWrongPath,
                    r.branchMispredicts, r.cacheMisses, r.cacheAccesses,
                    r.squashedInstructions, signatureCrc(sim, w)});
            }
        }
    }
    return out;
}

std::string
row(const Pinned &p)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", %u, %d, %d, %d, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%08" PRIx32
                  "u},",
                  p.workload, p.robSize, p.plan, p.status, p.trap,
                  p.cycles, p.committed, p.executed, p.injApplied,
                  p.injWrongPath, p.mispredicts, p.cacheMisses,
                  p.cacheAccesses, p.squashed, p.sigCrc);
    return buf;
}

} // namespace

TEST(OooOracle, EveryPinnedRunReproducesExactly)
{
    std::vector<Pinned> got = measureAll();
    if (got.size() != kPinned.size()) {
        std::string table;
        for (const Pinned &p : got)
            table += row(p) + "\n";
        FAIL() << "the case list changed; re-record the table:\n"
               << table;
    }
    // A row prints every field, so equal rows mean equal runs.
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(row(got[i]), row(kPinned[i]));
}

TEST(OooOracle, PinnedCasesCoverWrongPathHitsAndCrashes)
{
    bool wrongPath = false, crash = false, sdcOrMasked = false;
    for (const Pinned &p : kPinned) {
        if (p.plan == kGolden)
            continue;
        wrongPath |= p.injWrongPath > 0;
        crash |= p.status == static_cast<int>(OooSim::Status::Crashed);
        sdcOrMasked |= p.status == static_cast<int>(OooSim::Status::Halted);
    }
    EXPECT_TRUE(wrongPath);
    EXPECT_TRUE(crash);
    EXPECT_TRUE(sdcOrMasked);
}
