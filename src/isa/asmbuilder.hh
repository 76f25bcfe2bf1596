/**
 * @file
 * C++ macro-assembler DSL.
 *
 * The seven evaluated workloads are written against this builder: data
 * buffers are declared up front (addresses are assigned eagerly so
 * `la` needs no fixups), labels give structured control flow, and the
 * `li` pseudo-instruction expands to LIW/SLLI/ORI sequences for wide
 * constants. A build() call resolves branch labels and produces a
 * Program.
 */

#ifndef TEA_ISA_ASMBUILDER_HH
#define TEA_ISA_ASMBUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace tea::isa {

class AsmBuilder
{
  public:
    explicit AsmBuilder(std::string name);

    // ---- data section (declare before emitting code that uses it) ----
    uint64_t dataDoubles(const std::string &name,
                         const std::vector<double> &values);
    uint64_t dataI64(const std::string &name,
                     const std::vector<int64_t> &values);
    uint64_t dataI32(const std::string &name,
                     const std::vector<int32_t> &values);
    uint64_t dataBytes(const std::string &name,
                       const std::vector<uint8_t> &bytes);
    /** Zero-initialized buffer. */
    uint64_t dataSpace(const std::string &name, uint64_t bytes);

    // ---- labels ----
    using Label = size_t;
    Label newLabel();
    void bind(Label l);
    /** Convenience: fresh label bound here. */
    Label here();

    // ---- raw emission ----
    void emit(Op op, uint8_t rd = 0, uint8_t rs1 = 0, uint8_t rs2 = 0,
              int32_t imm = 0);
    size_t numInstructions() const { return code_.size(); }

    // ---- integer ----
    void add(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::ADD, rd, rs1, rs2); }
    void sub(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SUB, rd, rs1, rs2); }
    void and_(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::AND_, rd, rs1, rs2); }
    void or_(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::OR_, rd, rs1, rs2); }
    void xor_(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::XOR_, rd, rs1, rs2); }
    void sll(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SLL, rd, rs1, rs2); }
    void srl(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SRL, rd, rs1, rs2); }
    void sra(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SRA, rd, rs1, rs2); }
    void slt(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SLT, rd, rs1, rs2); }
    void sltu(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::SLTU, rd, rs1, rs2); }
    void mul(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::MUL, rd, rs1, rs2); }
    void div(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::DIV, rd, rs1, rs2); }
    void divu(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::DIVU, rd, rs1, rs2); }
    void rem(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::REM, rd, rs1, rs2); }
    void remu(uint8_t rd, uint8_t rs1, uint8_t rs2) { emit(Op::REMU, rd, rs1, rs2); }

    void addi(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::ADDI, rd, rs1, 0, imm); }
    void andi(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::ANDI, rd, rs1, 0, imm); }
    void ori(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::ORI, rd, rs1, 0, imm); }
    void xori(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::XORI, rd, rs1, 0, imm); }
    void slli(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::SLLI, rd, rs1, 0, imm); }
    void srli(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::SRLI, rd, rs1, 0, imm); }
    void srai(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::SRAI, rd, rs1, 0, imm); }
    void slti(uint8_t rd, uint8_t rs1, int32_t imm) { emit(Op::SLTI, rd, rs1, 0, imm); }

    /** Load an arbitrary 64-bit constant (expands as needed). */
    void li(uint8_t rd, int64_t value);
    /** Load the address of a previously declared data symbol. */
    void la(uint8_t rd, const std::string &symbol);
    /** Register move. */
    void mv(uint8_t rd, uint8_t rs1) { addi(rd, rs1, 0); }

    // ---- memory ----
    void ld(uint8_t rd, uint8_t base, int32_t off) { emit(Op::LD, rd, base, 0, off); }
    void lw(uint8_t rd, uint8_t base, int32_t off) { emit(Op::LW, rd, base, 0, off); }
    void sd(uint8_t rsData, uint8_t base, int32_t off) { emit(Op::SD, rsData, base, 0, off); }
    void sw(uint8_t rsData, uint8_t base, int32_t off) { emit(Op::SW, rsData, base, 0, off); }
    void fld(uint8_t fd, uint8_t base, int32_t off) { emit(Op::FLD, fd, base, 0, off); }
    void fsd(uint8_t fsData, uint8_t base, int32_t off) { emit(Op::FSD, fsData, base, 0, off); }

    // ---- control flow (label-resolved) ----
    void beq(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BEQ, rs1, rs2, l); }
    void bne(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BNE, rs1, rs2, l); }
    void blt(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BLT, rs1, rs2, l); }
    void bge(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BGE, rs1, rs2, l); }
    void bltu(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BLTU, rs1, rs2, l); }
    void bgeu(uint8_t rs1, uint8_t rs2, Label l) { emitBranch(Op::BGEU, rs1, rs2, l); }
    void jal(uint8_t rd, Label l);
    void j(Label l) { jal(0, l); }
    void jalr(uint8_t rd, uint8_t rs1, int32_t imm = 0) { emit(Op::JALR, rd, rs1, 0, imm); }
    void ret() { jalr(0, 1); }
    /** Call a label, linking through x1 (ra). */
    void call(Label l) { jal(1, l); }

    // ---- floating point ----
    void fadd_d(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FADD_D, fd, fs1, fs2); }
    void fsub_d(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FSUB_D, fd, fs1, fs2); }
    void fmul_d(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FMUL_D, fd, fs1, fs2); }
    void fdiv_d(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FDIV_D, fd, fs1, fs2); }
    void fcvt_d_l(uint8_t fd, uint8_t rs1) { emit(Op::FCVT_D_L, fd, rs1); }
    void fcvt_l_d(uint8_t rd, uint8_t fs1) { emit(Op::FCVT_L_D, rd, fs1); }
    void fadd_s(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FADD_S, fd, fs1, fs2); }
    void fsub_s(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FSUB_S, fd, fs1, fs2); }
    void fmul_s(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FMUL_S, fd, fs1, fs2); }
    void fdiv_s(uint8_t fd, uint8_t fs1, uint8_t fs2) { emit(Op::FDIV_S, fd, fs1, fs2); }
    void fcvt_s_w(uint8_t fd, uint8_t rs1) { emit(Op::FCVT_S_W, fd, rs1); }
    void fcvt_w_s(uint8_t rd, uint8_t fs1) { emit(Op::FCVT_W_S, rd, fs1); }
    void fmv(uint8_t fd, uint8_t fs1) { emit(Op::FMV, fd, fs1); }
    void fneg_d(uint8_t fd, uint8_t fs1) { emit(Op::FNEG_D, fd, fs1); }
    void fabs_d(uint8_t fd, uint8_t fs1) { emit(Op::FABS_D, fd, fs1); }
    void fmv_x_d(uint8_t rd, uint8_t fs1) { emit(Op::FMV_X_D, rd, fs1); }
    void fmv_d_x(uint8_t fd, uint8_t rs1) { emit(Op::FMV_D_X, fd, rs1); }
    void feq_d(uint8_t rd, uint8_t fs1, uint8_t fs2) { emit(Op::FEQ_D, rd, fs1, fs2); }
    void flt_d(uint8_t rd, uint8_t fs1, uint8_t fs2) { emit(Op::FLT_D, rd, fs1, fs2); }
    void fle_d(uint8_t rd, uint8_t fs1, uint8_t fs2) { emit(Op::FLE_D, rd, fs1, fs2); }

    // ---- system ----
    void printInt(uint8_t rs1) { emit(Op::ECALL, 0, rs1, 0, 1); }
    void printFp(uint8_t fs1) { emit(Op::ECALL, 0, fs1, 0, 2); }
    void halt() { emit(Op::HALT); }
    void nop() { emit(Op::NOP); }

    // ---- multi-core ABI (no-ops on OooSim) ----
    /** Start the lowest parked core at the code address in x[rs1]. */
    void spawn(uint8_t rs1) { emit(Op::ECALL, 0, rs1, 0, 3); }
    /** Stall until every spawned core has halted. */
    void join() { emit(Op::ECALL, 0, 0, 0, 4); }
    /** Stall until every running core arrives. */
    void barrier() { emit(Op::ECALL, 0, 0, 0, 5); }
    /** rd = this core's id (0 on the main core). */
    void mcCoreId(uint8_t rd)
    {
        li(rd, static_cast<int64_t>(kMcCtrlCoreId));
        ld(rd, rd, 0);
    }
    /** rd = number of cores in the machine. */
    void mcNumCores(uint8_t rd)
    {
        li(rd, static_cast<int64_t>(kMcCtrlBase));
        ld(rd, rd, static_cast<int32_t>(kMcCtrlNumCores - kMcCtrlBase));
    }
    /** Load the absolute byte address of a code label (for spawn). */
    void laCode(uint8_t rd, Label l);

    /** Resolve labels and produce the program. */
    Program build();

  private:
    void emitBranch(Op op, uint8_t rs1, uint8_t rs2, Label l);
    uint64_t addData(const std::string &name, std::vector<uint8_t> bytes);

    std::string name_;
    std::vector<Instruction> code_;
    struct Fixup
    {
        size_t index;
        Label label;
        /** Patch the absolute code byte address, not a PC offset. */
        bool absolute = false;
    };
    std::vector<Fixup> fixups_;
    std::vector<int64_t> labelPos_; // -1 = unbound
    Program prog_;
    uint64_t dataCursor_ = kDataBase;
    bool built_ = false;
};

} // namespace tea::isa

#endif // TEA_ISA_ASMBUILDER_HH
