/**
 * @file
 * TRISC-64: the RISC ISA executed by the simulators.
 *
 * A compact 64-bit load/store ISA (32 x-regs with x0 hardwired to zero,
 * 32 64-bit f-regs) playing the role the ARM ISA plays in the paper's
 * gem5 experiments. Its 12 arithmetic FP instructions correspond 1-to-1
 * to the ops of the characterized FPU (Section IV.B's "1-to-1
 * correspondence" between the gem5 CPU's FP instructions and the
 * OpenRISC FPU), so circuit-level error models transfer directly.
 *
 * Encoding (32-bit):
 *   R-type:  op[31:24] rd[23:19] rs1[18:14] rs2[13:9] 0[8:0]
 *   I-type:  op[31:24] rd[23:19] rs1[18:14] imm14[13:0] (signed)
 *   B-type:  op[31:24] rs1[23:19] rs2[18:14] imm14[13:0] (instr offset)
 *   J-type:  op[31:24] rd[23:19] imm19[18:0] (signed)
 */

#ifndef TEA_ISA_ISA_HH
#define TEA_ISA_ISA_HH

#include <cstdint>
#include <optional>
#include <string>

#include "fpu/fpu_types.hh"

namespace tea::isa {

enum class Op : uint8_t
{
    // Integer register-register.
    ADD, SUB, AND_, OR_, XOR_, SLL, SRL, SRA, SLT, SLTU,
    MUL, DIV, DIVU, REM, REMU,
    // Integer immediate (I-type).
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI,
    // Load signed 19-bit immediate (J-type layout).
    LIW,
    // Memory (I-type, offset addressing).
    LD, LW, SD, SW, FLD, FSD,
    // Control flow.
    BEQ, BNE, BLT, BGE, BLTU, BGEU, // B-type
    JAL,                            // J-type
    JALR,                           // I-type
    // Floating point, double precision (map to the gate FPU).
    FADD_D, FSUB_D, FMUL_D, FDIV_D,
    FCVT_D_L, // i2f: f[rd] = double(x[rs1])
    FCVT_L_D, // f2i: x[rd] = int64(f[rs1]), RTZ
    // Floating point, single precision (low 32 bits of f-regs).
    FADD_S, FSUB_S, FMUL_S, FDIV_S,
    FCVT_S_W, // i2f32
    FCVT_W_S, // f2i32
    // FP plumbing (short paths; never incur timing errors).
    FMV,     // f[rd] = f[rs1]
    FNEG_D, FABS_D,
    FMV_X_D, // x[rd] = raw bits of f[rs1]
    FMV_D_X, // f[rd] = raw bits of x[rs1]
    FEQ_D, FLT_D, FLE_D, // x[rd] = compare(f[rs1], f[rs2])
    // System.
    ECALL, // imm = function, rs1 = argument register
    HALT,
    NOP,
};

constexpr unsigned kNumOps = static_cast<unsigned>(Op::NOP) + 1;

/** ECALL functions. */
enum class Syscall : int
{
    PrintInt = 1, ///< append x[rs1] to the console stream
    PrintFp = 2,  ///< append raw bits of f[rs1] to the console stream
    // Multi-core ABI (sim/sync_hub.hh; executed non-speculatively at
    // commit; no-ops on OooSim).
    Spawn = 3,   ///< start the lowest parked core at code addr x[rs1]
    Join = 4,    ///< stall until every spawned core has halted
    Barrier = 5, ///< stall until all running cores arrive
};

/** A decoded instruction. */
struct Instruction
{
    Op op = Op::NOP;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;
};

const char *opName(Op op);

/** Instruction class predicates used by decode/rename and injection. */
bool isBranch(Op op);         ///< conditional branches
bool isJump(Op op);           ///< JAL / JALR
bool isLoad(Op op);
bool isStore(Op op);
bool isFpArith(Op op);        ///< the 12 error-modelled FP instructions
bool writesIntReg(Op op);
bool writesFpReg(Op op);
bool readsFpRs1(Op op);
bool readsFpRs2(Op op);
bool readsIntRs1(Op op);
bool readsIntRs2(Op op);
/** True if the op has any destination register at all. */
bool hasDest(Op op);
/** Stores carry their data register in the rd field; true if it is an
 * f-register (FSD). */
inline bool storeDataIsFp(Op op) { return op == Op::FSD; }

/** The FPU op implementing an FP-arithmetic instruction. */
fpu::FpuOp fpuOpFor(Op op);
/** The ISA op carrying out an FPU op (inverse of fpuOpFor). */
Op isaOpFor(fpu::FpuOp op);

/** Encode to the 32-bit binary format. */
uint32_t encode(const Instruction &insn);
/** Decode; returns nullopt for an illegal opcode byte. */
std::optional<Instruction> decode(uint32_t word);

/** Render one instruction as assembly text. */
std::string disassemble(const Instruction &insn);

/** Immediate range checks used by the encoder and the assembler. */
bool fitsImm14(int64_t v);
bool fitsImm19(int64_t v);

} // namespace tea::isa

#endif // TEA_ISA_ISA_HH
