/**
 * @file
 * Compiled-netlist DTA: the bytecode IR and the codegen that lowers a
 * fixed (netlist, annotation, delay scale, capture time) quadruple
 * into a flat specialized evaluation program.
 *
 * An interpreter would re-discover the same facts on every sample:
 * which cells are constant, which are buffers, which sit in the
 * capture-risky cone (cells on some static path longer than the
 * capture time), which fanins can ever carry a late toggle. All of
 * that is fixed for the lifetime of an operating point, so the
 * compiler here computes it once and bakes it into two straight-line
 * instruction streams:
 *
 *  - **Value program** (`insns`): one bytecode instruction per *live*
 *    cell, in the netlist's topological order, operating on reusable
 *    value *slots* (register allocation with a free list). Each slot
 *    holds three lane planes — faulty-old, faulty-new, and golden —
 *    so one sweep evaluates both simulation chains of a whole batch.
 *    Constant folding, copy propagation (Buf/And-with-1/Mux-const...),
 *    and dead-code elimination run at compile time; a folded cell
 *    costs zero instructions at run time.
 *  - **Timing program** (`tnodes`): one record per capture-risky cell
 *    whose arrival can still reach an output, with the cell's scaled
 *    delay, its remaining static path (the dynamic-slack pruning
 *    constant), and a *pre-filtered* fanin list — only fanins whose
 *    toggle planes can ever be non-zero (risky, non-constant) are
 *    kept, so the run-time recurrence never tests a fanin whose
 *    toggles are provably zero. Arrival rows are register-allocated
 *    like the value slots: a row is reused once the last timing node
 *    reading it has been visited, so the arena holds the live rows of
 *    a stage, not one row per timing node.
 *
 * Exactness: the timing records replicate LevelizedDta's recurrence
 * restricted to the capture-risky cone — the same pre-scaled double
 * delays, the same topological visit order — plus a dynamic-slack
 * prune (`arr + remaining <= captureTime`) that only drops toggles
 * which can no longer beat the capture edge. A dynamically late chain
 * is itself an over-long static path, so every cell on it is in the
 * cone; the value program computes the same boolean functions. So
 * settled / captured planes and per-late-lane arrivals are
 * bit-identical to LevelizedDta::run at every lane width (tests/dta
 * asserts this on randomized netlists and on every FPU stage).
 */

#ifndef TEA_CIRCUIT_DTA_PROGRAM_HH
#define TEA_CIRCUIT_DTA_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "circuit/celllib.hh"
#include "circuit/netlist.hh"

namespace tea::circuit {

/** Bytecode operations of the compiled value program. */
enum class DtaOp : uint8_t
{
    Input, ///< load prev/cur/golden planes of primary input `a`
    Const0,
    Const1,
    Copy, ///< alias store: used only to materialize a toggle row
    Not,
    And2,
    Or2,
    Xor2,
    Nand2,
    Nor2,
    Xnor2,
    Mux2, ///< operands (sel, a0, b1): sel ? b1 : a0
    Maj3,
};

/** Sentinel for "no slot / no row / no node". */
constexpr uint32_t kDtaNone = 0xffffffffu;

/**
 * One value instruction. `dst`/`a`/`b`/`c` are value-slot indices
 * (for Input, `a` is the primary-input index instead). When the cell
 * is capture-risky, `trow` names the toggle-arena row to store
 * `(old ^ new) & laneMask` into, and `tnode` (non-input cells only)
 * is the timing node to append to the dirty list when any toggle bit
 * is set.
 */
struct DtaInsn
{
    DtaOp op;
    uint8_t pad0 = 0;
    uint16_t pad1 = 0;
    uint32_t dst = kDtaNone;
    uint32_t a = kDtaNone;
    uint32_t b = kDtaNone;
    uint32_t c = kDtaNone;
    uint32_t trow = kDtaNone;
    uint32_t tnode = kDtaNone;
};

/** One pre-filtered timing fanin: toggle row + arrival row. */
struct DtaTimingFanin
{
    uint32_t trow; ///< fanin's toggle-arena row
    uint32_t arow; ///< fanin's arrival row (0 = shared clk-to-Q row)
};

/** One capture-risky cell visited by the timing pass. */
struct DtaTimingNode
{
    double delayPs;     ///< pre-scaled cell delay
    double remainingPs; ///< longest static path to any output
    uint32_t trow;      ///< own toggle row
    /** Own arrival row (>= 1), shared with nodes whose live ranges do
     * not overlap this one's. */
    uint32_t arow;
    uint32_t faninBegin; ///< into DtaProgram::tfanins
    uint32_t faninCount; ///< 0..3 surviving fanins
    /**
     * Whether a toggle with NO toggled fanin (arrival = delay alone)
     * can survive pruning: delayPs + remainingPs > captureTimePs.
     * When false, the kernel prunes such "orphan" lanes by masking
     * the toggle word with the union of fanin toggle words — no FP
     * work — which is exactly what the scalar recurrence would
     * conclude (worst = 0, arr = delay, arr + remaining <= cap).
     */
    uint32_t orphanLate;
};

/** A flat output the timing pass may flip at the capture edge. */
struct DtaTimingOut
{
    uint32_t outIdx; ///< flat output index
    uint32_t trow;
    uint32_t arow; ///< 0 when the output net is a primary input
};

/** The lowered program; immutable once compiled. */
struct DtaProgram
{
    std::vector<DtaInsn> insns;
    std::vector<DtaTimingNode> tnodes;
    std::vector<DtaTimingFanin> tfanins;
    std::vector<DtaTimingOut> touts;
    /** Value slot of each flat output (read after the sweep). */
    std::vector<uint32_t> outSlot;

    uint32_t numSlots = 0;       ///< peak live value slots
    uint32_t numToggleRows = 0;  ///< toggle-arena rows
    /** Peak live arrival rows; row 0 is the shared clk-to-Q row. */
    uint32_t numArrivalRows = 1;
    double clkToQPs = 0.0;
    double captureTimePs = 0.0;

    // Codegen statistics (reporting and tests).
    size_t cellsTotal = 0;  ///< netlist cells
    size_t cellsLive = 0;   ///< cells that emit a value instruction
    size_t cellsFolded = 0; ///< live-cone cells removed by folding
    size_t riskyCells = 0;  ///< capture-risky cells (pre-DCE)
};

/** Lower `nl` for one operating point and capture time. */
DtaProgram compileDtaProgram(const Netlist &nl,
                             const DelayAnnotation &annot,
                             double delayScale, double captureTimePs);

/**
 * Per-batch kernel context: raw views into the engine's scratch
 * arenas. `W` is the plane width in 64-bit words (1, 2, 4 or 8).
 */
struct DtaBatchCtx
{
    unsigned W = 1;
    const uint64_t *prev = nullptr;   ///< numInputs x W planes
    const uint64_t *cur = nullptr;    ///< numInputs x W planes
    const uint64_t *golden = nullptr; ///< numInputs x W planes
    uint64_t *slots = nullptr;   ///< numSlots x 3 x W
    uint64_t *toggles = nullptr; ///< numToggleRows x W
    /**
     * numArrivalRows x 64 doubles: one 64-lane slice, reused for every
     * plane word (the timing pass finishes a word before the next).
     */
    double *arrivals = nullptr;
    uint32_t *dirty = nullptr;        ///< capacity = tnodes.size()
    uint32_t dirtyCount = 0;
    const uint64_t *laneMask = nullptr; ///< W words
    uint64_t *captured = nullptr;       ///< numOuts x W (flipped late)
    double *maxArr = nullptr;           ///< 64 x W, zeroed per batch
    double captureTimePs = 0.0;
};

/**
 * One ISA specialization of the two kernels (see util/simd.hh). The
 * value sweep fills slots/toggles/dirty; the timing pass runs the
 * arrival recurrence over the dirty nodes and flips late captured
 * bits. Every specialization computes bit-identical results.
 */
struct DtaKernelTable
{
    void (*valueSweep)(const DtaProgram &, DtaBatchCtx &);
    void (*timingPass)(const DtaProgram &, DtaBatchCtx &);
};

const DtaKernelTable &dtaKernelsPortable();
#if defined(TEA_SIMD_AVX2)
const DtaKernelTable &dtaKernelsAvx2();
#endif
#if defined(TEA_SIMD_AVX512)
const DtaKernelTable &dtaKernelsAvx512();
#endif

} // namespace tea::circuit

#endif // TEA_CIRCUIT_DTA_PROGRAM_HH
