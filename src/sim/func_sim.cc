#include "sim/func_sim.hh"

#include <algorithm>

#include "sim/exec.hh"

namespace tea::sim {

const char *
trapName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::None: return "none";
      case TrapKind::MemFault: return "mem-fault";
      case TrapKind::Misaligned: return "misaligned";
      case TrapKind::ProtectedAccess: return "protected-access";
      case TrapKind::BadJump: return "bad-jump";
      case TrapKind::IllegalInsn: return "illegal-insn";
      case TrapKind::FpException: return "fp-exception";
      case TrapKind::SyncFault: return "sync-fault";
    }
    return "?";
}

namespace {

FuncSim::Config
clampCores(FuncSim::Config cfg)
{
    cfg.cores = std::clamp(cfg.cores, 1u, isa::kMcMaxCores);
    return cfg;
}

} // namespace

FuncSim::FuncSim(isa::Program prog, Config cfg)
    : prog_(std::move(prog)), cfg_(clampCores(cfg)), harts_(cfg_.cores),
      sync_(cfg_.cores)
{
    mem_.loadProgram(prog_);
    harts_[0].idx = prog_.entryIndex;
    harts_[0].xreg[2] = hartStackTop(0); // sp
}

uint64_t
FuncSim::opCount(isa::Op op) const
{
    uint64_t n = 0;
    for (const Hart &h : harts_)
        n += h.opCounts[static_cast<size_t>(op)];
    return n;
}

uint64_t
FuncSim::fpArithCount() const
{
    uint64_t n = 0;
    for (unsigned i = 0; i < isa::kNumOps; ++i)
        if (isa::isFpArith(static_cast<isa::Op>(i)))
            n += opCount(static_cast<isa::Op>(i));
    return n;
}

inline FuncSim::Step
FuncSim::exec(unsigned k, Hart &h, uint64_t &idx)
{
    using isa::Op;
    const auto &code = prog_.code;
    if (idx >= code.size()) {
        trap_ = TrapKind::BadJump;
        return Step::Trapped;
    }
    const isa::Instruction &insn = code[idx];
    uint64_t next = idx + 1;
    Step out = Step::Advanced;
    // Counted up front (the hot path stays short); an instruction
    // that traps or stalls does not retire, so those paths uncount it.
    ++h.opCounts[static_cast<size_t>(insn.op)];
    auto fault = [&](TrapKind kind) {
        --h.opCounts[static_cast<size_t>(insn.op)];
        trap_ = kind;
        return Step::Trapped;
    };
    auto stall = [&]() {
        --h.opCounts[static_cast<size_t>(insn.op)];
        return Step::Stalled;
    };

    switch (insn.op) {
      case Op::HALT:
        return Step::Halted;
      case Op::NOP:
        break;
      case Op::ECALL: {
        using isa::Syscall;
        switch (static_cast<Syscall>(insn.imm)) {
          case Syscall::PrintInt:
            console_.push_back(h.xreg[insn.rs1]);
            break;
          case Syscall::PrintFp:
            console_.push_back(h.freg[insn.rs1]);
            break;
          case Syscall::Spawn: {
            uint64_t target = h.xreg[insn.rs1];
            int w = sync_.spawn(target, code.size());
            if (w < 0)
                return fault(TrapKind::SyncFault);
            Hart &worker = harts_[static_cast<size_t>(w)];
            worker.idx = (target - isa::kCodeBase) / 4;
            worker.xreg[2] = hartStackTop(static_cast<unsigned>(w));
            out = Step::Spawned;
            break;
          }
          case Syscall::Join:
            if (!sync_.joinReady())
                return stall();
            break;
          case Syscall::Barrier:
            if (sync_.barrier(k) == SyncHub::Barrier::Stall)
                return stall();
            break;
          default:
            break;
        }
        break;
      }
      case Op::JAL:
        h.xreg[insn.rd] = (idx + 1) * 4 + isa::kCodeBase;
        if (insn.rd == 0)
            h.xreg[0] = 0;
        next = idx + static_cast<int64_t>(insn.imm);
        break;
      case Op::JALR: {
        uint64_t target = h.xreg[insn.rs1] + static_cast<int64_t>(insn.imm);
        h.xreg[insn.rd] = (idx + 1) * 4 + isa::kCodeBase;
        h.xreg[0] = 0;
        if (target < isa::kCodeBase || (target & 3) ||
            (target - isa::kCodeBase) / 4 >= code.size())
            return fault(TrapKind::BadJump);
        next = (target - isa::kCodeBase) / 4;
        break;
      }
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
        if (branchTaken(insn.op, h.xreg[insn.rs1], h.xreg[insn.rs2]))
            next = idx + static_cast<int64_t>(insn.imm);
        break;
      case Op::LD: case Op::LW: case Op::FLD: {
        uint64_t addr = h.xreg[insn.rs1] + static_cast<int64_t>(insn.imm);
        unsigned size = memAccessSize(insn.op);
        if (addr & (size - 1))
            return fault(TrapKind::Misaligned);
        if (addr < isa::kProtectedTop)
            return fault(TrapKind::ProtectedAccess);
        uint64_t v;
        if (mem_.isMapped(addr, size)) {
            v = mem_.read(addr, size);
        } else if (inCtrlPage(addr, size)) {
            v = ctrlPageRead(addr, k, cfg_.cores);
        } else
            return fault(TrapKind::MemFault);
        if (insn.op == Op::LW)
            v = static_cast<uint64_t>(
                static_cast<int64_t>(static_cast<int32_t>(v)));
        if (insn.op == Op::FLD)
            h.freg[insn.rd] = v;
        else
            h.xreg[insn.rd] = v;
        break;
      }
      case Op::SD: case Op::SW: case Op::FSD: {
        uint64_t addr = h.xreg[insn.rs1] + static_cast<int64_t>(insn.imm);
        unsigned size = memAccessSize(insn.op);
        if (addr & (size - 1))
            return fault(TrapKind::Misaligned);
        if (addr < isa::kProtectedTop)
            return fault(TrapKind::ProtectedAccess);
        // The control page is read-only and never mapped, so a store
        // to it is a MemFault, as on McSim's port.
        if (!mem_.isMapped(addr, size))
            return fault(TrapKind::MemFault);
        uint64_t data =
            (insn.op == Op::FSD) ? h.freg[insn.rd] : h.xreg[insn.rd];
        mem_.write(addr, size, data);
        break;
      }
      default: {
        uint64_t a, b = 0;
        if (isa::readsFpRs1(insn.op))
            a = h.freg[insn.rs1];
        else
            a = h.xreg[insn.rs1];
        if (isa::readsFpRs2(insn.op))
            b = h.freg[insn.rs2];
        else if (isa::readsIntRs2(insn.op))
            b = h.xreg[insn.rs2];
        if (fpTrace_ && isa::isFpArith(insn.op))
            fpTrace_->push_back(FpTraceEntry{isa::fpuOpFor(insn.op), a, b});
        ExecOut res = execArith(insn, a, b);
        if (res.fpSevere && cfg_.trapOnSevereFp &&
            isa::isFpArith(insn.op))
            return fault(TrapKind::FpException);
        if (isa::writesFpReg(insn.op)) {
            h.freg[insn.rd] = res.value;
        } else if (isa::writesIntReg(insn.op)) {
            h.xreg[insn.rd] = res.value;
            h.xreg[0] = 0;
        }
        break;
      }
    }
    idx = next;
    return out;
}

FuncSim::Step
FuncSim::step(unsigned k)
{
    Hart &h = harts_[k];
    Step s = exec(k, h, h.idx);
    if (s == Step::Advanced || s == Step::Spawned || s == Step::Halted)
        ++h.instructions;
    return s;
}

FuncSim::Step
FuncSim::runSolo(uint64_t budget)
{
    // The program counter and the count live in locals here, so the
    // single-hart loop is as tight as a single-core interpreter's.
    Hart &h = harts_[0];
    uint64_t idx = h.idx;
    uint64_t n = 0;
    Step s = Step::Advanced;
    while (n < budget) {
        s = exec(0, h, idx);
        if (s != Step::Advanced) {
            if (s == Step::Spawned || s == Step::Halted)
                ++n;
            break;
        }
        ++n;
    }
    h.idx = idx;
    h.instructions += n;
    return s;
}

FuncSim::Result
FuncSim::run()
{
    uint64_t total = 0;
    while (total < cfg_.maxInstructions) {
        // Hart 0 runs until the run ends (its HALT ends it), so a
        // round in which it runs alone is one of its instructions.
        unsigned first = 0;
        bool progressed = false;
        if (sync_.numRunning() == 1) {
            uint64_t before = harts_[0].instructions;
            Step s = runSolo(cfg_.maxInstructions - total);
            total += harts_[0].instructions - before;
            switch (s) {
              case Step::Advanced:
                continue; // budget spent
              case Step::Spawned:
                // The round goes on with the harts after hart 0.
                first = 1;
                progressed = true;
                break;
              case Step::Stalled:
                return {Status::Deadlock, TrapKind::None, -1, total};
              case Step::Halted:
                return {Status::Halted, TrapKind::None, -1, total};
              case Step::Trapped:
                return {Status::Trapped, trap_, 0, total};
            }
        }
        for (unsigned k = first; k < cfg_.cores; ++k) {
            if (!sync_.running(k))
                continue;
            switch (step(k)) {
              case Step::Advanced:
              case Step::Spawned:
                ++total;
                progressed = true;
                break;
              case Step::Halted:
                ++total;
                progressed = true;
                if (k == 0)
                    return {Status::Halted, TrapKind::None, -1, total};
                sync_.park(k);
                break;
              case Step::Trapped:
                return {Status::Trapped, trap_, static_cast<int>(k), total};
              case Step::Stalled:
                break;
            }
        }
        if (!progressed)
            return {Status::Deadlock, TrapKind::None, -1, total};
    }
    return {Status::LimitReached, TrapKind::None, -1, total};
}

} // namespace tea::sim
