#include "isa/isa.hh"

#include <cstdio>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace tea::isa {

const char *
opName(Op op)
{
    switch (op) {
      case Op::ADD: return "add";
      case Op::SUB: return "sub";
      case Op::AND_: return "and";
      case Op::OR_: return "or";
      case Op::XOR_: return "xor";
      case Op::SLL: return "sll";
      case Op::SRL: return "srl";
      case Op::SRA: return "sra";
      case Op::SLT: return "slt";
      case Op::SLTU: return "sltu";
      case Op::MUL: return "mul";
      case Op::DIV: return "div";
      case Op::DIVU: return "divu";
      case Op::REM: return "rem";
      case Op::REMU: return "remu";
      case Op::ADDI: return "addi";
      case Op::ANDI: return "andi";
      case Op::ORI: return "ori";
      case Op::XORI: return "xori";
      case Op::SLLI: return "slli";
      case Op::SRLI: return "srli";
      case Op::SRAI: return "srai";
      case Op::SLTI: return "slti";
      case Op::LIW: return "liw";
      case Op::LD: return "ld";
      case Op::LW: return "lw";
      case Op::SD: return "sd";
      case Op::SW: return "sw";
      case Op::FLD: return "fld";
      case Op::FSD: return "fsd";
      case Op::BEQ: return "beq";
      case Op::BNE: return "bne";
      case Op::BLT: return "blt";
      case Op::BGE: return "bge";
      case Op::BLTU: return "bltu";
      case Op::BGEU: return "bgeu";
      case Op::JAL: return "jal";
      case Op::JALR: return "jalr";
      case Op::FADD_D: return "fadd.d";
      case Op::FSUB_D: return "fsub.d";
      case Op::FMUL_D: return "fmul.d";
      case Op::FDIV_D: return "fdiv.d";
      case Op::FCVT_D_L: return "fcvt.d.l";
      case Op::FCVT_L_D: return "fcvt.l.d";
      case Op::FADD_S: return "fadd.s";
      case Op::FSUB_S: return "fsub.s";
      case Op::FMUL_S: return "fmul.s";
      case Op::FDIV_S: return "fdiv.s";
      case Op::FCVT_S_W: return "fcvt.s.w";
      case Op::FCVT_W_S: return "fcvt.w.s";
      case Op::FMV: return "fmv";
      case Op::FNEG_D: return "fneg.d";
      case Op::FABS_D: return "fabs.d";
      case Op::FMV_X_D: return "fmv.x.d";
      case Op::FMV_D_X: return "fmv.d.x";
      case Op::FEQ_D: return "feq.d";
      case Op::FLT_D: return "flt.d";
      case Op::FLE_D: return "fle.d";
      case Op::ECALL: return "ecall";
      case Op::HALT: return "halt";
      case Op::NOP: return "nop";
    }
    return "?";
}

fpu::FpuOp
fpuOpFor(Op op)
{
    using fpu::FpuOp;
    switch (op) {
      case Op::FADD_D: return FpuOp::AddD;
      case Op::FSUB_D: return FpuOp::SubD;
      case Op::FMUL_D: return FpuOp::MulD;
      case Op::FDIV_D: return FpuOp::DivD;
      case Op::FCVT_D_L: return FpuOp::I2FD;
      case Op::FCVT_L_D: return FpuOp::F2ID;
      case Op::FADD_S: return FpuOp::AddS;
      case Op::FSUB_S: return FpuOp::SubS;
      case Op::FMUL_S: return FpuOp::MulS;
      case Op::FDIV_S: return FpuOp::DivS;
      case Op::FCVT_S_W: return FpuOp::I2FS;
      case Op::FCVT_W_S: return FpuOp::F2IS;
      default:
        panic("fpuOpFor on non-FP op %s", opName(op));
    }
}

Op
isaOpFor(fpu::FpuOp op)
{
    using fpu::FpuOp;
    switch (op) {
      case FpuOp::AddD: return Op::FADD_D;
      case FpuOp::SubD: return Op::FSUB_D;
      case FpuOp::MulD: return Op::FMUL_D;
      case FpuOp::DivD: return Op::FDIV_D;
      case FpuOp::I2FD: return Op::FCVT_D_L;
      case FpuOp::F2ID: return Op::FCVT_L_D;
      case FpuOp::AddS: return Op::FADD_S;
      case FpuOp::SubS: return Op::FSUB_S;
      case FpuOp::MulS: return Op::FMUL_S;
      case FpuOp::DivS: return Op::FDIV_S;
      case FpuOp::I2FS: return Op::FCVT_S_W;
      case FpuOp::F2IS: return Op::FCVT_W_S;
    }
    panic("bad FpuOp");
}

namespace {

enum class Fmt { R, I, B, J, N };

Fmt
fmtOf(Op op)
{
    if (isBranch(op))
        return Fmt::B;
    if (op == Op::JAL || op == Op::LIW)
        return Fmt::J;
    switch (op) {
      case Op::ADDI: case Op::ANDI: case Op::ORI: case Op::XORI:
      case Op::SLLI: case Op::SRLI: case Op::SRAI: case Op::SLTI:
      case Op::LD: case Op::LW: case Op::SD: case Op::SW:
      case Op::FLD: case Op::FSD: case Op::JALR: case Op::ECALL:
        return Fmt::I;
      case Op::HALT: case Op::NOP:
        return Fmt::N;
      default:
        return Fmt::R;
    }
}

} // namespace

bool
fitsImm14(int64_t v)
{
    return v >= -(1 << 13) && v < (1 << 13);
}

bool
fitsImm19(int64_t v)
{
    return v >= -(1 << 18) && v < (1 << 18);
}

uint32_t
encode(const Instruction &insn)
{
    uint32_t w = static_cast<uint32_t>(insn.op) << 24;
    switch (fmtOf(insn.op)) {
      case Fmt::R:
        w |= static_cast<uint32_t>(insn.rd) << 19;
        w |= static_cast<uint32_t>(insn.rs1) << 14;
        w |= static_cast<uint32_t>(insn.rs2) << 9;
        break;
      case Fmt::I:
        panic_if(!fitsImm14(insn.imm), "imm14 overflow in %s: %d",
                 opName(insn.op), insn.imm);
        w |= static_cast<uint32_t>(insn.rd) << 19;
        w |= static_cast<uint32_t>(insn.rs1) << 14;
        w |= static_cast<uint32_t>(insn.imm) & 0x3fff;
        break;
      case Fmt::B:
        panic_if(!fitsImm14(insn.imm), "imm14 overflow in %s: %d",
                 opName(insn.op), insn.imm);
        w |= static_cast<uint32_t>(insn.rs1) << 19;
        w |= static_cast<uint32_t>(insn.rs2) << 14;
        w |= static_cast<uint32_t>(insn.imm) & 0x3fff;
        break;
      case Fmt::J:
        panic_if(!fitsImm19(insn.imm), "imm19 overflow in %s: %d",
                 opName(insn.op), insn.imm);
        w |= static_cast<uint32_t>(insn.rd) << 19;
        w |= static_cast<uint32_t>(insn.imm) & 0x7ffff;
        break;
      case Fmt::N:
        break;
    }
    return w;
}

std::optional<Instruction>
decode(uint32_t word)
{
    uint32_t opByte = word >> 24;
    if (opByte >= kNumOps)
        return std::nullopt;
    Instruction insn;
    insn.op = static_cast<Op>(opByte);
    switch (fmtOf(insn.op)) {
      case Fmt::R:
        insn.rd = static_cast<uint8_t>(bits(word, 19, 5));
        insn.rs1 = static_cast<uint8_t>(bits(word, 14, 5));
        insn.rs2 = static_cast<uint8_t>(bits(word, 9, 5));
        break;
      case Fmt::I:
        insn.rd = static_cast<uint8_t>(bits(word, 19, 5));
        insn.rs1 = static_cast<uint8_t>(bits(word, 14, 5));
        insn.imm = static_cast<int32_t>(sext(bits(word, 0, 14), 14));
        break;
      case Fmt::B:
        insn.rs1 = static_cast<uint8_t>(bits(word, 19, 5));
        insn.rs2 = static_cast<uint8_t>(bits(word, 14, 5));
        insn.imm = static_cast<int32_t>(sext(bits(word, 0, 14), 14));
        break;
      case Fmt::J:
        insn.rd = static_cast<uint8_t>(bits(word, 19, 5));
        insn.imm = static_cast<int32_t>(sext(bits(word, 0, 19), 19));
        break;
      case Fmt::N:
        break;
    }
    return insn;
}

std::string
disassemble(const Instruction &insn)
{
    char buf[80];
    const char *n = opName(insn.op);
    switch (fmtOf(insn.op)) {
      case Fmt::R: {
        char c1 = writesFpReg(insn.op) ? 'f' : 'x';
        char c2 = readsFpRs1(insn.op) ? 'f' : 'x';
        char c3 = readsFpRs2(insn.op) ? 'f' : 'x';
        std::snprintf(buf, sizeof(buf), "%s %c%d, %c%d, %c%d", n, c1,
                      insn.rd, c2, insn.rs1, c3, insn.rs2);
        break;
      }
      case Fmt::I:
        if (isLoad(insn.op) || isStore(insn.op)) {
            char c = (insn.op == Op::FLD || insn.op == Op::FSD) ? 'f'
                                                                : 'x';
            std::snprintf(buf, sizeof(buf), "%s %c%d, %d(x%d)", n, c,
                          insn.rd, insn.imm, insn.rs1);
        } else {
            std::snprintf(buf, sizeof(buf), "%s x%d, x%d, %d", n,
                          insn.rd, insn.rs1, insn.imm);
        }
        break;
      case Fmt::B:
        std::snprintf(buf, sizeof(buf), "%s x%d, x%d, %d", n, insn.rs1,
                      insn.rs2, insn.imm);
        break;
      case Fmt::J:
        std::snprintf(buf, sizeof(buf), "%s x%d, %d", n, insn.rd,
                      insn.imm);
        break;
      case Fmt::N:
        std::snprintf(buf, sizeof(buf), "%s", n);
        break;
    }
    return buf;
}

} // namespace tea::isa
