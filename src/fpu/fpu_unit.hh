/**
 * @file
 * Runtime model of one pipelined FPU unit under dynamic timing analysis.
 *
 * A unit owns its stage netlists, their delay annotations, and — per
 * voltage operating point — one DTA engine per stage plus the pipeline
 * history (the previous operation's stage inputs), which is what makes
 * timing errors data- and history-dependent. execute() runs one
 * operation through the pipeline twice in lockstep: a golden chain
 * (settled values, i.e. nominal-voltage behaviour) and a faulty chain
 * in which every stage's *captured* values — including any stale bits —
 * feed the next stage, exactly like the paper's two parallel gate-level
 * simulations.
 */

#ifndef TEA_FPU_FPU_UNIT_HH
#define TEA_FPU_FPU_UNIT_HH

#include <memory>
#include <string>
#include <vector>

#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "circuit/netlist.hh"
#include "circuit/sta.hh"
#include "fpu/fpu_circuits.hh"
#include "fpu/fpu_types.hh"

namespace tea::fpu {

class FpuUnit
{
  public:
    FpuUnit(FpuUnitKind kind, const FpuConfig &cfg,
            const circuit::CellLibrary &lib);

    FpuUnitKind kind() const { return kind_; }
    const char *name() const { return fpuUnitName(kind_); }
    size_t numStages() const { return stages_.size(); }
    const circuit::Netlist &stage(size_t s) const { return *stages_[s]; }
    /** Per-stage delay annotation (nominal voltage). */
    const circuit::DelayAnnotation &stageAnnotation(size_t s) const
    {
        return annots_[s];
    }
    size_t totalCells() const;

    /** Per-stage static timing results (nominal voltage). */
    const std::vector<circuit::StaResult> &sta() const { return sta_; }
    /** Worst static path over all stages (incl. clk-to-Q and setup). */
    double worstStagePathPs() const;

    /**
     * Register a voltage operating point. delayScale multiplies every
     * cell delay (1.0 = nominal); exactEngine selects the event-driven
     * reference simulator instead of the fast levelized one.
     * @return the operating-point index used by execute().
     */
    size_t addOperatingPoint(double delayScale, bool exactEngine = false);

    size_t numOperatingPoints() const { return points_.size(); }

    /** Delay scale an operating point was registered with. */
    double pointScale(size_t point) const;
    /** Whether an operating point uses the exact event-driven engine. */
    bool pointExact(size_t point) const;

    /** Outcome of one operation at one operating point. */
    struct Exec
    {
        uint64_t golden;      ///< settled result (nominal behaviour)
        uint64_t faulty;      ///< result with timing errors applied
        uint64_t errorMask;   ///< golden ^ faulty over the result bits
        uint8_t goldenFlags;  ///< IEEE flags (FpuFlagBit bit order)
        uint8_t faultyFlags;  ///< flags as latched (may be corrupted)
        bool timingError;     ///< any output bit (result or flags) stale
        double maxArrivalPs;  ///< worst dynamic arrival across stages
    };

    /**
     * Execute one operation. stage0 must match the unit's input layout
     * (see buildUnitCircuits). The unit's pipeline history at this
     * operating point advances.
     *
     * Concurrency: netlists, annotations, and STA results are immutable
     * after construction, and execute() only mutates the addressed
     * Point (its DTA engines and pipeline history). Concurrent
     * execute() calls are therefore safe iff they target *distinct*
     * operating points — the contract the parallel campaign shards
     * rely on (one replica point per worker; see
     * FpuCore::workerPoints). Registering points concurrently with
     * execution is not safe.
     */
    Exec execute(size_t point, const std::vector<bool> &stage0,
                 double captureTimePs);

    /**
     * Execute up to 512 operations at once through the compiled
     * batched DTA engine (circuit::CompiledDta). stage0Planes holds
     * circuit::CompiledDta::wordsFor(lanes) uint64_t words per
     * stage-0 input net, input-major (one word per net for lanes <=
     * 64); lane l is operation l's input, and out[l] receives its
     * Exec. Operations behave exactly as `lanes` sequential execute()
     * calls: lane l's pipeline history is lane l-1's stage inputs
     * (lane 0 continues from the point's stored history), and after
     * the batch the history holds the last lane's inputs — results
     * are bit-identical to the scalar path at every lane width,
     * except that Exec::maxArrivalPs is computed over the
     * capture-risky cone only (exact for every op with a timing
     * error, a lower bound for error-free ops; see
     * circuit::WideBatch). Exact (event-driven) operating points and
     * single-lane batches fall back to scalar execute() calls
     * internally.
     *
     * Same concurrency contract as execute(): concurrent calls are
     * safe iff they target distinct operating points.
     */
    void executeBatch(size_t point,
                      const std::vector<uint64_t> &stage0Planes,
                      unsigned lanes, double captureTimePs, Exec *out);

    /** Forget the pipeline history at an operating point. */
    void reset(size_t point);

    /** Build the stage-0 input vector for an op on this unit. */
    std::vector<bool> packInputs(FpuOp op, uint64_t a, uint64_t b) const;

    /**
     * Set lane `lane` of zero-initialized stage-0 planes (`words`
     * uint64_t words per input net, input-major — the executeBatch
     * layout) to the op's inputs: packInputs' layout, without a
     * per-op vector.
     */
    void packLane(FpuOp op, uint64_t a, uint64_t b, uint64_t *planes,
                  unsigned words, unsigned lane) const;

    unsigned resultBits() const { return resultBits_; }

  private:
    FpuUnitKind kind_;
    std::vector<std::unique_ptr<circuit::Netlist>> stages_;
    std::vector<circuit::DelayAnnotation> annots_;
    std::vector<circuit::StaResult> sta_;
    unsigned resultBits_;

    struct Point
    {
        double scale;
        bool exact;
        std::vector<std::unique_ptr<circuit::DtaEngine>> engines;
        /**
         * Per-stage compiled engines, created (and their netlists
         * lowered) on the first multi-lane batch at this point —
         * points that only run scalar ops pay nothing.
         */
        std::vector<std::unique_ptr<circuit::CompiledDta>>
            compiledEngines;
        std::vector<std::vector<bool>> prevIn; ///< per stage
        bool primed = false;
    };
    std::vector<Point> points_;

    /** Lazily build + compile the point's CompiledDta engines. */
    void ensureCompiledEngines(Point &pt, double captureTimePs);
};

} // namespace tea::fpu

#endif // TEA_FPU_FPU_UNIT_HH
