/**
 * @file
 * Pinned functional oracle.
 *
 * Every value in the table below was recorded from the two functional
 * interpreters the repository used to keep (`sim::FuncSim` for one
 * core, `mc::McFuncSim` for N). The one functional simulator that
 * replaced them must reproduce all of them: status, trap and trapping
 * core, per-core instruction counts, and CRC-32s of the per-core
 * dynamic op-count arrays, of the FP operand trace (op, a, b in
 * order) and of the checked output (output symbols, then console).
 *
 * Cases: the seven paper workloads (seed 7, scale 1) through the
 * single-core interface; the two threaded workloads at 1, 2 and 4
 * cores through the multi-core one; an instruction limit that cuts a
 * 4-core run mid-round; and a spawn with no parked core (SyncFault)
 * after the first worker has started.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "isa/asmbuilder.hh"
#include "isa/isa.hh"
#include "mc/mc_func_sim.hh"
#include "sim/func_sim.hh"
#include "util/crc32.hh"
#include "workloads/workloads.hh"

using namespace tea;

namespace {

/**
 * One functional run. `status` and `trap` are the `Status` /
 * `TrapKind` enumerator values; `instr` holds one count per core.
 */
struct Pinned
{
    std::string name;
    unsigned cores;
    int status;
    int trap;
    int trapCore;
    std::vector<uint64_t> instr;
    uint32_t opCrc, traceCrc, outCrc;
};

// clang-format off
const std::vector<Pinned> kPinned = {
    {"sobel", 1, 0, 0, -1, {24090}, 0x51f9f5cfu, 0x3f7d47b0u, 0xc0fc893au},
    {"cg", 1, 0, 0, -1, {117122}, 0x49f8efd2u, 0x2a229101u, 0xe985e0cfu},
    {"k-means", 1, 0, 0, -1, {100943}, 0xa7b19b89u, 0x5717207du, 0x6a686cefu},
    {"srad_v1", 1, 0, 0, -1, {37590}, 0x67452daau, 0x69d1b42fu, 0x413f7cf8u},
    {"hotspot", 1, 0, 0, -1, {53375}, 0xb398f93fu, 0xf0cb891du, 0x5659fdeeu},
    {"is", 1, 0, 0, -1, {80931}, 0xe5efcbf4u, 0x37cc3f42u, 0x9ab971beu},
    {"mg", 1, 0, 0, -1, {281706}, 0xd1ca212au, 0x6a4f4738u, 0x412b6815u},
    {"k-means-mt", 1, 0, 0, -1, {103776}, 0x4f3d9bb2u, 0xbbdc3df0u, 0x6a686cefu},
    {"k-means-mt", 2, 0, 0, -1, {52650, 51671}, 0x4d9c1f94u, 0xfc124786u, 0xd3ee06feu},
    {"k-means-mt", 4, 0, 0, -1, {27426, 25931, 26053, 26001}, 0xf473edc2u, 0x56e64cabu, 0x32db38a9u},
    {"hotspot-mt", 1, 0, 0, -1, {53493}, 0x683c6bb6u, 0xf0cb891du, 0x5659fdeeu},
    {"hotspot-mt", 2, 0, 0, -1, {27845, 25721}, 0xd2c1a1a2u, 0x8b560e39u, 0x5659fdeeu},
    {"hotspot-mt", 4, 0, 0, -1, {16193, 14061, 11729, 11729}, 0x68c67529u, 0x8d89a921u, 0x5659fdeeu},
    {"k-means-mt/limit", 4, 2, 0, -1, {25835, 24675, 24769, 24727}, 0xe4000dc0u, 0x15d9f6a2u, 0x4b92546du},
    {"overspawn", 2, 1, 7, 0, {18, 12}, 0x169c20d2u, 0x9fdec93fu, 0x7cc4a5eau},
};
// clang-format on

uint32_t
traceCrc(const std::vector<sim::FpTraceEntry> &trace)
{
    uint32_t crc = 0;
    for (const sim::FpTraceEntry &e : trace) {
        uint32_t op = static_cast<uint32_t>(e.op);
        crc = crc32(&op, sizeof(op), crc);
        crc = crc32(&e.a, sizeof(e.a), crc);
        crc = crc32(&e.b, sizeof(e.b), crc);
    }
    return crc;
}

uint32_t
outputCrc(const sim::Memory &mem, const sim::Console &con,
          const isa::Program &prog,
          const std::vector<std::string> &outputSymbols)
{
    uint32_t crc = 0;
    for (const auto &sym : outputSymbols) {
        auto block = mem.readBlock(prog.symbol(sym), prog.symbolSize(sym));
        crc = crc32(block.data(), block.size(), crc);
    }
    return crc32(con.data(), con.size() * sizeof(con[0]), crc);
}

/** A paper workload through the single-core interface. */
Pinned
singleCore(const std::string &name)
{
    workloads::Workload w = workloads::buildWorkload(name, 7, 1);
    sim::FuncSim fsim(w.program);
    std::vector<sim::FpTraceEntry> trace;
    fsim.setFpTrace(&trace);
    auto r = fsim.run();
    uint32_t opCrc = 0;
    for (unsigned i = 0; i < isa::kNumOps; ++i) {
        uint64_t n = fsim.opCount(static_cast<isa::Op>(i));
        opCrc = crc32(&n, sizeof(n), opCrc);
    }
    return Pinned{name,
                  1,
                  static_cast<int>(r.status),
                  static_cast<int>(r.trap),
                  -1,
                  {r.instructions},
                  opCrc,
                  traceCrc(trace),
                  outputCrc(fsim.memory(), fsim.console(), w.program,
                            w.outputSymbols)};
}

/** A program through the multi-core interface. */
Pinned
multiCore(const std::string &name, const isa::Program &prog,
          const std::vector<std::string> &outputSymbols, unsigned cores,
          uint64_t maxInstructions = 2'000'000'000ULL)
{
    mc::McFuncSim::Config cfg;
    cfg.cores = cores;
    cfg.maxInstructions = maxInstructions;
    mc::McFuncSim fsim(prog, cfg);
    std::vector<sim::FpTraceEntry> trace;
    fsim.setFpTrace(&trace);
    auto r = fsim.run();
    Pinned p{name,
             cores,
             static_cast<int>(r.status),
             static_cast<int>(r.trap),
             r.trapCore,
             {},
             0,
             traceCrc(trace),
             outputCrc(fsim.memory(), fsim.console(), prog, outputSymbols)};
    for (unsigned k = 0; k < cores; ++k) {
        p.instr.push_back(fsim.instructions(k));
        for (unsigned i = 0; i < isa::kNumOps; ++i) {
            uint64_t n = fsim.opCount(k, static_cast<isa::Op>(i));
            p.opCrc = crc32(&n, sizeof(n), p.opCrc);
        }
    }
    return p;
}

/**
 * Core 0 spawns a worker that stores FP partial sums into its slot of
 * `out` (addressed through the control page), prints a product, then
 * spawns again while the worker still runs: on a 2-core machine there
 * is no parked core left, so the second spawn is a SyncFault.
 */
isa::Program
buildOverspawn()
{
    isa::AsmBuilder b("overspawn");
    uint64_t out = b.dataI64("out", std::vector<int64_t>(4, 0));
    b.dataDoubles("c", {1.5, 2.25});
    auto worker = b.newLabel();
    auto loop = b.newLabel();
    auto mainLoop = b.newLabel();

    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.laCode(6, worker);
    b.spawn(6);
    b.li(7, 3);
    b.bind(mainLoop);
    b.fmul_d(3, 1, 2);
    b.addi(7, 7, -1);
    b.bne(7, 0, mainLoop);
    b.printFp(3);
    b.spawn(6);
    b.halt();

    b.bind(worker);
    b.mcCoreId(8);
    b.li(9, static_cast<int64_t>(out));
    b.slli(10, 8, 3);
    b.add(9, 9, 10);
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.li(7, 50);
    b.bind(loop);
    b.fadd_d(1, 1, 2);
    b.fsd(1, 9, 0);
    b.addi(7, 7, -1);
    b.bne(7, 0, loop);
    b.halt();
    return b.build();
}

std::vector<Pinned>
measureAll()
{
    std::vector<Pinned> out;
    for (const auto &name : workloads::workloadNames())
        out.push_back(singleCore(name));
    for (const char *name : {"k-means-mt", "hotspot-mt"}) {
        workloads::Workload w = workloads::buildWorkload(name, 7, 1);
        for (unsigned cores : {1u, 2u, 4u})
            out.push_back(
                multiCore(name, w.program, w.outputSymbols, cores));
    }
    workloads::Workload km = workloads::buildWorkload("k-means-mt", 7, 1);
    out.push_back(multiCore("k-means-mt/limit", km.program,
                            km.outputSymbols, 4, 100'003));
    out.push_back(multiCore("overspawn", buildOverspawn(), {"out"}, 2));
    return out;
}

std::string
row(const Pinned &p)
{
    std::string instr;
    for (size_t k = 0; k < p.instr.size(); ++k)
        instr += (k ? ", " : "") + std::to_string(p.instr[k]);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", %u, %d, %d, %d, {%s}, 0x%08" PRIx32
                  "u, 0x%08" PRIx32 "u, 0x%08" PRIx32 "u},",
                  p.name.c_str(), p.cores, p.status, p.trap, p.trapCore,
                  instr.c_str(), p.opCrc, p.traceCrc, p.outCrc);
    return buf;
}

} // namespace

TEST(FuncOracle, EveryPinnedRunReproducesExactly)
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

TEST(FuncOracle, PinnedCasesCoverEveryEndingAndTheInterleave)
{
    bool limit = false, syncFault = false, fourCores = false;
    for (const Pinned &p : kPinned) {
        limit |= p.status ==
                 static_cast<int>(mc::McFuncSim::Status::LimitReached);
        syncFault |= p.trap == static_cast<int>(sim::TrapKind::SyncFault);
        fourCores |= p.cores == 4 && p.instr.size() == 4 &&
                     p.instr[3] > 0;
    }
    EXPECT_TRUE(limit);
    EXPECT_TRUE(syncFault);
    EXPECT_TRUE(fourCores);
}
