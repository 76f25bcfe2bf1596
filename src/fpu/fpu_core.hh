/**
 * @file
 * The complete characterized FPU: all 10 units, the clock period they
 * imply (Eq. 1 of the paper), voltage operating points, and the path
 * reports behind Fig. 4.
 */

#ifndef TEA_FPU_FPU_CORE_HH
#define TEA_FPU_FPU_CORE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/celllib.hh"
#include "circuit/sta.hh"
#include "fpu/fpu_circuits.hh"
#include "fpu/fpu_types.hh"
#include "fpu/fpu_unit.hh"

namespace tea::fpu {

/** One capture endpoint tagged with its owning pipeline unit. */
struct UnitPathInfo
{
    std::string unit;   ///< e.g. "fpu-mul.d.s3" or "int-alu"
    bool isFpu;
    double pathDelayPs; ///< incl. clk-to-Q and setup
};

class FpuCore
{
  public:
    explicit FpuCore(const FpuConfig &cfg = FpuConfig{},
                     const circuit::CellLibrary &lib =
                         circuit::CellLibrary::nangate45Like());

    /** The minimum clock period: the worst static path in the core. */
    double clockPs() const { return clockPs_; }
    /** Capture time for DTA runs: clock minus register setup. */
    double captureTimePs() const { return captureTimePs_; }

    const FpuUnit &unit(FpuUnitKind k) const
    {
        return *units_[static_cast<size_t>(k)];
    }
    FpuUnit &unit(FpuUnitKind k)
    {
        return *units_[static_cast<size_t>(k)];
    }

    /**
     * Register a voltage operating point on every unit.
     * @return the operating-point index shared by all units.
     */
    size_t addOperatingPoint(double delayScale, bool exactEngine = false);

    /**
     * `count` operating points equivalent to `point` (same delay scale
     * and engine kind) for concurrent per-worker execution: element 0
     * is `point` itself, the rest are replicas sharing the immutable
     * netlists/annotations but owning their own DTA engines and
     * pipeline history. execute() on distinct points is thread-safe
     * (see FpuUnit::execute). Replicas are cached, so repeated
     * campaigns reuse them; callers must reset() a point before use
     * since its pipeline history is whatever the previous shard left.
     */
    std::vector<size_t> workerPoints(size_t point, unsigned count);

    using Exec = FpuUnit::Exec;

    /**
     * Run one FP instruction at an operating point. For conversions the
     * integer operand travels in `a`; `b` is ignored. SP operands are
     * the low 32 bits.
     */
    Exec execute(size_t point, FpuOp op, uint64_t a, uint64_t b = 0);

    /**
     * Run `lanes` (<= circuit::CompiledDta::kMaxLanes) instructions on
     * one unit at once through its batched DTA engine: lane l executes
     * ops[l] on (a[l], b[l]) and out[l] receives its Exec. Lanes may
     * mix ops that share a unit (AddD with SubD, AddS with SubS);
     * every lane must map to ops[0]'s unit, or the call panics.
     * Bit-identical to `lanes` sequential execute() calls — including
     * pipeline-history effects — at any lane count (see
     * FpuUnit::executeBatch for the fallback rules).
     */
    void executeBatch(size_t point, const FpuOp *ops, const uint64_t *a,
                      const uint64_t *b, unsigned lanes, Exec *out);

    /** Clear pipeline history on every unit. */
    void reset(size_t point);

    /**
     * All capture endpoints of the FPU units plus representative
     * integer-side logic, sorted by descending path delay (Fig. 4).
     */
    std::vector<UnitPathInfo> pathReport() const;

    /** Total gate count across all FPU units (reporting). */
    size_t totalCells() const;

    const FpuConfig &config() const { return cfg_; }
    const circuit::CellLibrary &library() const { return lib_; }

  private:
    FpuConfig cfg_;
    circuit::CellLibrary lib_;
    std::vector<std::unique_ptr<FpuUnit>> units_;
    std::map<size_t, std::vector<size_t>> replicas_; ///< base point -> clones
    std::vector<std::unique_ptr<circuit::Netlist>> intSide_;
    std::vector<circuit::StaResult> intSta_;
    double clockPs_ = 0.0;
    double captureTimePs_ = 0.0;
};

} // namespace tea::fpu

#endif // TEA_FPU_FPU_CORE_HH
