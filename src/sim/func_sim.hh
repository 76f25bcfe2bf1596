/**
 * @file
 * Fast functional simulator.
 *
 * Executes a program architecturally (no timing) on one or more harts
 * for golden runs, dynamic instruction counting (Table II), per-core
 * profiles for injection planning, and FP operand trace collection
 * for the workload-aware error model. Semantics are shared with the
 * OoO model through sim/exec.hh, and the multi-core ABI (control
 * page, spawn/join/barrier) with McSim through sim/sync_hub.hh.
 *
 * Harts step in a fixed one-instruction round-robin (hart 0, 1, ...,
 * N-1, skipping parked ones), so an N-hart run — console, memory, FP
 * trace and per-hart counts — is a pure function of (program, N).
 * Stalled syscall retries are not instructions, and neither is an
 * instruction that traps, so per-hart counts are what each hart
 * architecturally retires.
 */

#ifndef TEA_SIM_FUNC_SIM_HH
#define TEA_SIM_FUNC_SIM_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fpu/fpu_types.hh"
#include "isa/program.hh"
#include "sim/memory.hh"
#include "sim/sim_types.hh"
#include "sim/sync_hub.hh"

namespace tea::sim {

/** One FP-arithmetic dynamic instance (for DTA operand replay). */
struct FpTraceEntry
{
    fpu::FpuOp op;
    uint64_t a;
    uint64_t b;
};

class FuncSim
{
  public:
    struct Config
    {
        unsigned cores = 1; ///< harts, clamped to [1, isa::kMcMaxCores]
        bool trapOnSevereFp = true;
        uint64_t maxInstructions = 2'000'000'000ULL;
    };

    FuncSim(isa::Program prog, Config cfg);
    explicit FuncSim(isa::Program prog)
        : FuncSim(std::move(prog), Config{})
    {
    }

    enum class Status
    {
        Halted,       ///< hart 0 executed HALT
        Trapped,
        LimitReached,
        Deadlock,     ///< every running hart stalled on a syscall
    };

    struct Result
    {
        Status status;
        TrapKind trap;
        int trapCore;          ///< hart that trapped (Trapped only)
        uint64_t instructions; ///< total across harts
    };

    /** Run to completion (or trap / deadlock / instruction limit). */
    Result run();

    /** Optional FP operand trace sink, in interleave order. */
    void setFpTrace(std::vector<FpTraceEntry> *sink) { fpTrace_ = sink; }

    unsigned cores() const { return cfg_.cores; }
    const Memory &memory() const { return mem_; }
    const Console &console() const { return console_; }
    uint64_t instructions(unsigned core) const
    {
        return harts_[core].instructions;
    }
    uint64_t opCount(unsigned core, isa::Op op) const
    {
        return harts_[core].opCounts[static_cast<size_t>(op)];
    }
    /** Dynamic count of `op` across every hart. */
    uint64_t opCount(isa::Op op) const;
    /** FP-arithmetic instructions across every hart. */
    uint64_t fpArithCount() const;

  private:
    struct Hart
    {
        std::array<uint64_t, 32> xreg{};
        std::array<uint64_t, 32> freg{};
        uint64_t idx = 0;
        uint64_t instructions = 0;
        std::array<uint64_t, isa::kNumOps> opCounts{};
    };

    enum class Step
    {
        Advanced,
        Spawned, ///< advanced, and started a parked hart
        Stalled,
        Halted,
        Trapped,
    };

    /**
     * Execute hart k's instruction at `idx`, moving `idx` to its
     * successor when the instruction retires.
     */
    [[gnu::always_inline]] inline Step exec(unsigned k, Hart &h,
                                            uint64_t &idx);
    /** Round-robin step of hart k (counts a retired instruction). */
    Step step(unsigned k);
    /**
     * Step hart 0 alone while it is the only running hart, at most
     * `budget` instructions; returns its first step that is not a
     * plain advance (Advanced if the budget ran out).
     */
    Step runSolo(uint64_t budget);

    isa::Program prog_; ///< owned copy; callers may pass temporaries
    Config cfg_;
    Memory mem_;
    Console console_;
    std::vector<Hart> harts_;
    SyncHub sync_;
    std::vector<FpTraceEntry> *fpTrace_ = nullptr;
    TrapKind trap_ = TrapKind::None; ///< why the last Trapped step trapped
};

} // namespace tea::sim

#endif // TEA_SIM_FUNC_SIM_HH
