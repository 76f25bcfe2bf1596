/**
 * @file
 * The three timing-error injection models of Table I.
 *
 *  - DaModel: data-agnostic, a fixed error ratio per voltage level;
 *    every injection flips one uniformly-chosen bit of a random
 *    instruction's destination register (soft-error style).
 *  - IaModel: instruction-aware, per-type statistics characterized by
 *    DTA over random operands.
 *  - WaModel: instruction- and workload-aware (the paper's proposal),
 *    characterized by DTA over the target workload's own operand trace.
 *
 * A model turns a program's golden profile into an InjectionPlan for
 * the microarchitectural injector: which dynamic instructions get
 * corrupted and with which bitmasks.
 */

#ifndef TEA_MODELS_ERROR_MODELS_HH
#define TEA_MODELS_ERROR_MODELS_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "timing/dta_campaign.hh"
#include "util/rng.hh"

namespace tea::models {

enum class ModelKind
{
    DA,
    IA,
    WA,
};

const char *modelKindName(ModelKind kind);

/** Golden-run profile of a program (from the functional simulator). */
struct ProgramProfile
{
    uint64_t totalInstructions = 0;
    uint64_t instructionsWithDest = 0;
    std::array<uint64_t, fpu::kNumFpuOps> fpOpCounts{};

    /** Hart `core`'s profile from a finished functional run. */
    static ProgramProfile fromFuncSim(const sim::FuncSim &sim,
                                      unsigned core);

    ProgramProfile &operator+=(const ProgramProfile &other);
};

class ErrorModel
{
  public:
    virtual ~ErrorModel() = default;

    virtual ModelKind kind() const = 0;
    virtual std::string describe() const = 0;

    /** Produce the injection events for one evaluation run. */
    virtual std::vector<sim::InjectionEvent>
    plan(const ProgramProfile &profile, Rng &rng) const = 0;

    /**
     * Plan one run under a (possibly reweighted) proposal
     * distribution. `logWeight` receives the natural log of the
     * likelihood ratio target/proposal of the produced plan — the
     * importance-sampling weight campaigns fold into weighted AVM
     * estimation. The base implementation samples from the target
     * itself, so the weight is exactly 1 (log 0.0) and campaigns over
     * plain models are bit-identical to the unweighted path.
     */
    virtual std::vector<sim::InjectionEvent>
    planWeighted(const ProgramProfile &profile, Rng &rng,
                 double &logWeight) const
    {
        logWeight = 0.0;
        return plan(profile, rng);
    }

    /**
     * True when planWeighted() samples from a proposal other than the
     * target measure (i.e. produced weights can differ from 1). Drives
     * the weighted-estimation path in campaigns.
     */
    virtual bool weightedProposal() const { return false; }

    /** Expected number of injected errors for a program (for Fig. 10). */
    virtual double expectedErrors(const ProgramProfile &profile) const = 0;
};

/** Data-agnostic model: fixed ER, uniform single-bit flips. */
class DaModel final : public ErrorModel
{
  public:
    explicit DaModel(double errorRatio);

    ModelKind kind() const override { return ModelKind::DA; }
    std::string describe() const override;
    std::vector<sim::InjectionEvent> plan(const ProgramProfile &profile,
                                          Rng &rng) const override;
    double expectedErrors(const ProgramProfile &profile) const override;

    double errorRatio() const { return errorRatio_; }

  private:
    double errorRatio_;
};

/** Per-type statistics shared by the IA and WA models. */
struct OpModelStats
{
    double faultyProb = 0.0;
    std::array<double, 64> ber{};
    std::vector<uint64_t> maskPool;
};

/** Statistical model base: per-type probabilities + bitmask pools. */
class StatisticalModel : public ErrorModel
{
  public:
    StatisticalModel(ModelKind kind, std::string name,
                     std::array<OpModelStats, fpu::kNumFpuOps> stats);

    ModelKind kind() const override { return kind_; }
    std::string describe() const override { return name_; }
    std::vector<sim::InjectionEvent> plan(const ProgramProfile &profile,
                                          Rng &rng) const override;
    double expectedErrors(const ProgramProfile &profile) const override;

    const OpModelStats &opStats(fpu::FpuOp op) const
    {
        return stats_[static_cast<size_t>(op)];
    }

    /** Full per-type statistics (importance-sampling wrappers copy it). */
    const std::array<OpModelStats, fpu::kNumFpuOps> &allStats() const
    {
        return stats_;
    }

    /** Convert DTA campaign statistics into model statistics. */
    static std::array<OpModelStats, fpu::kNumFpuOps>
    fromCampaign(const timing::CampaignStats &stats);

  private:
    ModelKind kind_;
    std::string name_;
    std::array<OpModelStats, fpu::kNumFpuOps> stats_;
};

class IaModel final : public StatisticalModel
{
  public:
    explicit IaModel(const timing::CampaignStats &stats)
        : StatisticalModel(ModelKind::IA, "IA-model",
                           fromCampaign(stats))
    {
    }
};

class WaModel final : public StatisticalModel
{
  public:
    WaModel(const std::string &workload,
            const timing::CampaignStats &stats)
        : StatisticalModel(ModelKind::WA, "WA-model(" + workload + ")",
                           fromCampaign(stats))
    {
    }
};

// ---------------------------------------------------------------------
// Campaign-statistics caching (model development is expensive; benches
// share characterizations through these files). The file format is
// integrity-checked: a versioned magic line plus a CRC-32 over the
// whole body, so a torn write or bit rot is detected as Corrupt rather
// than silently parsed into wrong statistics.
// ---------------------------------------------------------------------

/** What loadCampaignStats found at the path. */
enum class CacheLoad
{
    Loaded,  ///< Intact file, stats filled in.
    Missing, ///< No file — the quiet cold-cache case.
    Corrupt, ///< File exists but fails magic/CRC/parse checks.
};

/**
 * Save campaign statistics as a CRC-guarded text file. An I/O failure
 * is a warn (the campaign results still stand; only caching is lost),
 * and the function returns false.
 */
bool saveCampaignStats(const std::string &path,
                       const timing::CampaignStats &stats);
/** Load them back, distinguishing a cold cache from a damaged one. */
CacheLoad loadCampaignStats(const std::string &path,
                            timing::CampaignStats &stats);

} // namespace tea::models

#endif // TEA_MODELS_ERROR_MODELS_HH
