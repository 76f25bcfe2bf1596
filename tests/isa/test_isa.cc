#include <gtest/gtest.h>

#include "isa/isa.hh"
#include "util/rng.hh"

using namespace tea::isa;

TEST(IsaEncode, RoundTripAllFormats)
{
    const Instruction cases[] = {
        {Op::ADD, 5, 6, 7, 0},
        {Op::ADDI, 5, 6, 0, -42},
        {Op::ADDI, 5, 6, 0, 8191},
        {Op::ADDI, 5, 6, 0, -8192},
        {Op::BEQ, 0, 3, 4, -100},
        {Op::JAL, 1, 0, 0, 200000},
        {Op::LIW, 9, 0, 0, -262144},
        {Op::LD, 10, 2, 0, 1024},
        {Op::FSD, 31, 2, 0, -8},
        {Op::FADD_D, 1, 2, 3, 0},
        {Op::ECALL, 0, 11, 0, 1},
        {Op::HALT, 0, 0, 0, 0},
        {Op::NOP, 0, 0, 0, 0},
    };
    for (const auto &insn : cases) {
        auto rt = decode(encode(insn));
        ASSERT_TRUE(rt.has_value());
        EXPECT_EQ(rt->op, insn.op);
        EXPECT_EQ(rt->rd, insn.rd) << opName(insn.op);
        EXPECT_EQ(rt->rs1, insn.rs1) << opName(insn.op);
        if (readsIntRs2(insn.op) || readsFpRs2(insn.op) ||
            isBranch(insn.op)) {
            EXPECT_EQ(rt->rs2, insn.rs2) << opName(insn.op);
        }
        EXPECT_EQ(rt->imm, insn.imm) << opName(insn.op);
    }
}

TEST(IsaDecode, RejectsIllegalOpcode)
{
    EXPECT_FALSE(decode(0xff000000u).has_value());
}

TEST(IsaPredicates, Consistency)
{
    for (unsigned i = 0; i < kNumOps; ++i) {
        auto op = static_cast<Op>(i);
        // An op never writes both register files.
        EXPECT_FALSE(writesIntReg(op) && writesFpReg(op)) << opName(op);
        // FP-arith ops map to FPU ops and back.
        if (isFpArith(op)) {
            EXPECT_EQ(isaOpFor(fpuOpFor(op)), op) << opName(op);
        }
        // Loads and stores are disjoint.
        EXPECT_FALSE(isLoad(op) && isStore(op)) << opName(op);
    }
}

TEST(IsaDisassemble, ContainsMnemonic)
{
    Instruction insn{Op::FMUL_D, 3, 4, 5, 0};
    auto text = disassemble(insn);
    EXPECT_NE(text.find("fmul.d"), std::string::npos);
    EXPECT_NE(text.find("f3"), std::string::npos);
}

TEST(IsaImmRanges, Bounds)
{
    EXPECT_TRUE(fitsImm14(8191));
    EXPECT_FALSE(fitsImm14(8192));
    EXPECT_TRUE(fitsImm14(-8192));
    EXPECT_FALSE(fitsImm14(-8193));
    EXPECT_TRUE(fitsImm19(262143));
    EXPECT_FALSE(fitsImm19(262144));
}
