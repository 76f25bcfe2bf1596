#include <gtest/gtest.h>

#include "isa/asmbuilder.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "softfloat/softfloat.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

using namespace tea::isa;
using namespace tea::sim;
using tea::Rng;

namespace {

/** A program with branches, memory traffic, FP math, and a call. */
Program
mixedProgram()
{
    AsmBuilder b("mixed");
    b.dataDoubles("xs", {1.5, -2.25, 3.0, 0.5, 10.0, -1.0, 2.0, 4.0});
    b.dataDoubles("one", {1.0});
    b.dataSpace("out", 64);

    auto fn = b.newLabel();
    auto start = b.newLabel();
    b.j(start);

    // fn: f10 += f10 * f11 ; returns
    b.bind(fn);
    b.fmul_d(12, 10, 11);
    b.fadd_d(10, 10, 12);
    b.ret();

    b.bind(start);
    b.la(5, "xs");
    b.la(6, "out");
    b.li(7, 8);  // n
    b.li(8, 0);  // i
    b.la(9, "one");
    b.fld(10, 9, 0); // accumulator starts at 1.0
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.slli(9, 8, 3);
    b.add(9, 9, 5);
    b.fld(11, 9, 0);
    // Skip negative values (data-dependent branch).
    b.fmv_d_x(13, 0);
    b.fle_d(14, 13, 11);
    b.beq(14, 0, skip);
    b.call(fn);
    b.bind(skip);
    b.addi(8, 8, 1);
    b.blt(8, 7, loop);
    b.fsd(10, 6, 0);
    b.fcvt_l_d(15, 10);
    b.printInt(15);
    b.printFp(10);
    b.halt();
    return b.build();
}

} // namespace

TEST(OooSim, MatchesFunctionalOnMixedProgram)
{
    Program p = mixedProgram();
    FuncSim fsim(p);
    auto fr = fsim.run();
    ASSERT_EQ(fr.status, FuncSim::Status::Halted);

    OooSim osim(p);
    auto orr = osim.run(1'000'000);
    ASSERT_EQ(orr.status, OooSim::Status::Halted);
    EXPECT_EQ(orr.committed, fr.instructions);
    EXPECT_EQ(osim.console(), fsim.console());
    EXPECT_EQ(osim.memory().readBlock(p.symbol("out"), 8),
              fsim.memory().readBlock(p.symbol("out"), 8));
    // Sanity: the OoO core actually overlapped work.
    EXPECT_LT(orr.cycles, 10 * orr.committed);
    EXPECT_GE(orr.executed, orr.committed);
}

TEST(OooSim, StoreToLoadForwarding)
{
    AsmBuilder b("fwd");
    b.dataSpace("buf", 32);
    b.la(5, "buf");
    b.li(6, 1234);
    b.sd(6, 5, 0);
    b.ld(7, 5, 0); // must see the in-flight store
    b.addi(7, 7, 1);
    b.printInt(7);
    b.halt();
    Program p = b.build();
    OooSim sim(p);
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console()[0], 1235u);
}

TEST(OooSim, BranchMispredictsAreCounted)
{
    // Data-dependent alternating branch pattern defeats the bimodal
    // predictor part of the time.
    AsmBuilder b("br");
    b.li(5, 200);
    b.li(6, 0);
    auto loop = b.newLabel();
    auto odd = b.newLabel();
    auto cont = b.newLabel();
    b.bind(loop);
    b.andi(7, 5, 1);
    b.bne(7, 0, odd);
    b.addi(6, 6, 2);
    b.j(cont);
    b.bind(odd);
    b.addi(6, 6, 1);
    b.bind(cont);
    b.addi(5, 5, -1);
    b.bne(5, 0, loop);
    b.printInt(6);
    b.halt();
    Program p = b.build();

    FuncSim fsim(p);
    fsim.run();
    OooSim sim(p);
    auto r = sim.run(1'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console(), fsim.console());
    EXPECT_GT(r.branchMispredicts, 10u);
    EXPECT_GT(r.squashedInstructions, 0u); // wrong-path work happened
    EXPECT_GE(r.executed, r.committed);
}

TEST(OooSim, CrashOnCommittedTrap)
{
    AsmBuilder b("crash");
    b.li(5, 0x7f000000);
    b.ld(6, 5, 0);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Crashed);
    EXPECT_EQ(r.trap, TrapKind::MemFault);
}

TEST(OooSim, WrongPathFaultDoesNotCrash)
{
    // An always-taken branch starts cold-predicted not-taken, so the
    // faulting load behind it is fetched (and may execute) on the wrong
    // path; the fault must be squashed, never committed.
    AsmBuilder b("wp");
    b.li(9, 0x7f000000); // bad pointer
    b.li(5, 1);
    auto skip = b.newLabel();
    b.beq(5, 5, skip); // always taken
    b.ld(6, 9, 0);     // wrong-path only
    b.ld(7, 9, 8);
    b.bind(skip);
    b.printInt(5);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(1'000'000);
    EXPECT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_GE(r.branchMispredicts, 1u);
    EXPECT_GT(r.squashedInstructions, 0u);
}

TEST(OooSim, CycleLimitReported)
{
    AsmBuilder b("spin");
    auto loop = b.here();
    b.j(loop);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(5000);
    EXPECT_EQ(r.status, OooSim::Status::CycleLimit);
    EXPECT_EQ(r.cycles, 5000u);
}

TEST(OooSim, InjectionChangesResult)
{
    // Flip a high mantissa bit of the first executed fp-mul.
    Program p = mixedProgram();
    FuncSim fsim(p);
    fsim.run();

    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0,
         0xffff000000000ULL},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(1'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 1u);
    // The corrupted multiply feeds the accumulator: output must differ.
    EXPECT_NE(sim.console(), fsim.console());
}

TEST(OooSim, InjectionIntoDeadValueIsMasked)
{
    AsmBuilder b("dead");
    b.dataDoubles("c", {2.0, 3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fmul_d(3, 1, 2); // dead: overwritten before use
    b.fmv(3, 1);
    b.printFp(3);
    b.halt();
    Program p = b.build();
    FuncSim fsim(p);
    fsim.run();

    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0,
         0x8000000000000000ULL},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 1u);
    EXPECT_EQ(sim.console(), fsim.console()); // masked
}

TEST(OooSim, InjectionCanCauseCrash)
{
    // Corrupt the address-producing conversion so a load goes wild.
    AsmBuilder b("crashinj");
    b.dataDoubles("c", {1.0}); // index as double
    b.dataSpace("arr", 64);
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fcvt_l_d(6, 1);  // int index 1
    b.slli(6, 6, 3);
    b.la(7, "arr");
    b.add(7, 7, 6);
    b.ld(8, 7, 0);
    b.printInt(8);
    b.halt();
    Program p = b.build();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::F2ID, 0,
         0x7f00000000ULL}, // huge index
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Crashed);
    EXPECT_EQ(r.trap, TrapKind::MemFault);
}

TEST(OooSim, DeterministicAcrossRuns)
{
    Program p = mixedProgram();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::AnyDest, tea::fpu::FpuOp::AddD, 17,
         1ULL << 20},
    };
    OooSim s1(p, OooConfig{}, InjectionPlan(events));
    OooSim s2(p, OooConfig{}, InjectionPlan(events));
    auto r1 = s1.run(1'000'000);
    auto r2 = s2.run(1'000'000);
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(s1.console(), s2.console());
}

TEST(OooSim, CacheStatsPlausible)
{
    // Stream over a buffer larger than L1: misses must show up.
    AsmBuilder b("stream");
    b.dataSpace("buf", 128 * 1024);
    b.la(5, "buf");
    b.li(6, 16384); // 16K doubles = 128KB
    auto loop = b.here();
    b.ld(7, 5, 0);
    b.addi(5, 5, 8);
    b.addi(6, 6, -1);
    b.bne(6, 0, loop);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_GT(r.cacheAccesses, 16000u);
    // One miss per 64B line = every 8th access.
    EXPECT_GT(r.cacheMisses, 1500u);
    EXPECT_LT(r.cacheMisses, 4000u);
}

TEST(OooSim, RandomProgramsMatchFunctional)
{
    // Property test: random (structured) programs produce identical
    // architectural results on both models.
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        AsmBuilder b("rand");
        std::vector<double> init;
        for (int i = 0; i < 16; ++i)
            init.push_back((rng.nextDouble() - 0.5) * 100.0);
        b.dataDoubles("vals", init);
        b.dataSpace("out", 128);
        b.la(5, "vals");
        b.la(6, "out");
        for (int i = 1; i <= 8; ++i)
            b.fld(i, 5, static_cast<int32_t>(rng.nextBounded(16) * 8));
        int nOps = 10 + static_cast<int>(rng.nextBounded(30));
        for (int i = 0; i < nOps; ++i) {
            auto fd = static_cast<uint8_t>(1 + rng.nextBounded(8));
            auto f1 = static_cast<uint8_t>(1 + rng.nextBounded(8));
            auto f2 = static_cast<uint8_t>(1 + rng.nextBounded(8));
            switch (rng.nextBounded(4)) {
              case 0: b.fadd_d(fd, f1, f2); break;
              case 1: b.fsub_d(fd, f1, f2); break;
              case 2: b.fmul_d(fd, f1, f2); break;
              default: b.fabs_d(fd, f1); break;
            }
        }
        for (int i = 1; i <= 8; ++i)
            b.fsd(i, 6, (i - 1) * 8);
        b.halt();
        Program p = b.build();
        FuncSim fsim(p);
        auto fr = fsim.run();
        ASSERT_EQ(fr.status, FuncSim::Status::Halted);
        OooSim osim(p);
        auto orr = osim.run(1'000'000);
        ASSERT_EQ(orr.status, OooSim::Status::Halted);
        EXPECT_EQ(osim.memory().readBlock(p.symbol("out"), 128),
                  fsim.memory().readBlock(p.symbol("out"), 128))
            << "trial " << trial;
    }
}

TEST(OooSim, MultipleInjectionsAccumulate)
{
    // Several masks on the same dynamic instruction XOR together.
    AsmBuilder b("multi");
    b.dataDoubles("c", {2.0, 3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fmul_d(3, 1, 2);
    b.printFp(3);
    b.halt();
    Program p = b.build();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0, 0xf0},
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0, 0x0f},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 2u);
    EXPECT_EQ(sim.console()[0], tea::sf::fromDouble(6.0) ^ 0xffULL);
}

TEST(OooSim, InjectionIndexBeyondExecutionNeverFires)
{
    AsmBuilder b("beyond");
    b.li(5, 1);
    b.printInt(5);
    b.halt();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::AnyDest, tea::fpu::FpuOp::AddD, 999999,
         1},
    };
    OooSim sim(b.build(), OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 0u);
}

TEST(OooSim, NarrowMachineStillCorrect)
{
    // A 1-wide, tiny-window configuration must produce identical
    // architectural results (only slower).
    Program p = mixedProgram();
    FuncSim fsim(p);
    auto fr = fsim.run();
    OooConfig cfg;
    cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth = cfg.commitWidth =
        1;
    cfg.robSize = 8;
    cfg.iqSize = 4;
    cfg.maxLoads = 2;
    cfg.maxStores = 2;
    OooSim sim(p, cfg);
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.committed, fr.instructions);
    EXPECT_EQ(sim.console(), fsim.console());

    OooSim wide(p);
    auto rw = wide.run(10'000'000);
    EXPECT_GT(r.cycles, rw.cycles); // narrower must be slower
}

TEST(OooSim, WideMachineStillCorrect)
{
    Program p = mixedProgram();
    FuncSim fsim(p);
    fsim.run();
    OooConfig cfg;
    cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth = cfg.commitWidth =
        4;
    cfg.robSize = 128;
    cfg.iqSize = 64;
    OooSim sim(p, cfg);
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console(), fsim.console());
}

namespace {

/** Run `p` on the OoO core and expect FuncSim's console and ending. */
OooSim::Result
runAgainstFunctional(const Program &p, OooConfig cfg = OooConfig{})
{
    FuncSim fsim(p);
    auto fr = fsim.run();
    EXPECT_EQ(fr.status, FuncSim::Status::Halted);
    OooSim sim(p, cfg);
    auto r = sim.run(1'000'000);
    EXPECT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.committed, fr.instructions);
    EXPECT_EQ(sim.console(), fsim.console());
    return r;
}

} // namespace

TEST(OooSim, LoadWaitsForAStoreAddressFromADivideThenForwards)
{
    // The store's address is a 12-cycle divide away; the younger load
    // to the same word has its address at once. It must wait for the
    // store to execute and then take its data without touching the
    // cache: the only cache access is the store's own at commit.
    AsmBuilder b("divfwd");
    b.dataI64("buf", {7});
    b.la(5, "buf");
    b.li(6, 1);
    b.div(7, 5, 6);
    b.li(8, 42);
    b.sd(8, 7, 0);
    b.ld(9, 5, 0);
    b.addi(9, 9, 1);
    b.printInt(9);
    b.halt();
    Program p = b.build();
    auto r = runAgainstFunctional(p);
    EXPECT_EQ(r.cacheAccesses, 1u);
}

TEST(OooSim, PartialOverlapWaitsForTheStoreToCommit)
{
    // A word load from the upper half of an in-flight doubleword store
    // cannot be forwarded: it waits until the store commits and then
    // reads the new bytes from memory (two cache accesses).
    AsmBuilder b("partial");
    b.dataI64("buf", {0x1111111122222222LL});
    b.la(5, "buf");
    b.li(6, 1);
    b.div(7, 5, 6);
    b.li(8, -123456789);
    b.sd(8, 7, 0);
    b.lw(9, 5, 4);
    b.printInt(9);
    b.halt();
    Program p = b.build();
    auto r = runAgainstFunctional(p);
    EXPECT_EQ(r.cacheAccesses, 2u);
}

TEST(OooSim, SquashedConsumerSlotReuseIgnoresTheOldWakeup)
{
    // A divide and a cache-missing load are in flight when a cold,
    // always-taken branch resolves as mispredicted. The wrong-path
    // `add` waited on the divide as its first source; the correct-path
    // `add` renamed into the same ROB slot waits on the load (first
    // source) and the divide (second). When the divide finishes, the
    // squashed consumer's wakeup must not count for the new one, or it
    // would issue early with the divide in both sources.
    AsmBuilder b("reuse");
    b.dataI64("v", {1000});
    b.la(20, "v");
    b.li(5, 700);
    b.li(6, 7);
    b.div(7, 5, 6); // 100
    b.ld(9, 20, 0); // 1000, an L1 miss
    auto target = b.newLabel();
    b.beq(0, 0, target);
    b.add(10, 7, 0); // wrong path only
    b.add(11, 7, 7);
    b.bind(target);
    b.add(10, 9, 7);
    b.printInt(10);
    b.halt();
    Program p = b.build();
    auto r = runAgainstFunctional(p);
    EXPECT_GE(r.branchMispredicts, 1u);
    EXPECT_GE(r.squashedInstructions, 2u);
}

TEST(OooSimDeathTest, ZeroOrOversizedLatencyIsRefusedAtConstruction)
{
    // A 0-cycle latency would make a result due in the cycle that
    // scheduled it; the core refuses it instead of hanging.
    Program p = mixedProgram();
    OooConfig alu;
    alu.latAlu = 0;
    EXPECT_DEATH(OooSim(p, alu), "latAlu is 0");
    OooConfig hit;
    hit.latCacheHit = 0;
    EXPECT_DEATH(OooSim(p, hit), "latCacheHit is 0");
    OooConfig miss;
    miss.latCacheMiss = 1'000'000;
    EXPECT_DEATH(OooSim(p, miss), "latCacheMiss is 1000000 cycles.*"
                                  "timing wheel");
}

TEST(OooSim, SquashedConsumerIsNeverWokenBeforeItsSlotIsReused)
{
    // A cache-missing load writes back a few cycles after a mispredicted
    // branch squashed its consumers, while the refilled correct path
    // has not reached their ROB slots yet: the wakeup must not revive
    // them. The multiply chain the branch waits for sweeps the squash
    // across the load's writeback, 3 cycles a step, and the wrong-path
    // filler moves the consumers' slots away from the branch. A revived
    // consumer executes without changing any output, so the timing of
    // the whole sweep is pinned too: a CRC of (cycles, executed,
    // squashed) per run, recorded from the store-queue/busy-set core.
    uint32_t crc = 0;
    for (int fill = 0; fill < 10; ++fill) {
        for (int chain = 0; chain < 30; ++chain) {
            AsmBuilder b("deadwake");
            b.dataI64("v", {1000});
            b.la(20, "v");
            b.li(6, 1);
            b.li(14, 1);
            b.ld(9, 20, 0);
            for (int i = 0; i < chain; ++i)
                b.mul(14, 14, 6);
            auto target = b.newLabel();
            b.beq(14, 14, target);
            for (int i = 0; i < fill; ++i)
                b.addi(13, 13, 1); // wrong path only
            b.add(10, 9, 9);
            b.add(11, 10, 9);
            b.bind(target);
            b.add(10, 9, 14);
            b.printInt(10);
            b.printInt(13);
            b.halt();
            SCOPED_TRACE(testing::Message()
                         << "fill " << fill << " chain " << chain);
            auto r = runAgainstFunctional(b.build());
            const uint64_t timing[] = {r.cycles, r.executed,
                                       r.squashedInstructions};
            crc = tea::crc32(timing, sizeof(timing), crc);
        }
    }
    EXPECT_EQ(crc, 0x833442d3u);
}
