/**
 * @file
 * Oracle for the empty-plan shortcut: a run whose injection plan has
 * no event is answered from the golden run without simulating. Its
 * record must equal, field by field, what a full cycle-level run with
 * empty plans produces once classified against the functional
 * reference — on the seven paper workloads (OooSim) and on the
 * threaded workloads at 2 and 4 cores (McSim) — and an importance-
 * sampled proposal keeps its plan's weight.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "inject/campaign.hh"
#include "mc/mc_sim.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::inject;
using RunRecord = InjectionCampaign::RunRecord;

namespace {

/** The checked outputs: output symbols, then the console words. */
std::vector<uint8_t>
outputs(const workloads::Workload &w, const sim::Memory &mem,
        const sim::Console &console)
{
    std::vector<uint8_t> sig;
    for (const auto &sym : w.outputSymbols) {
        auto block = mem.readBlock(w.program.symbol(sym),
                                   w.program.symbolSize(sym));
        sig.insert(sig.end(), block.begin(), block.end());
    }
    size_t off = sig.size();
    sig.resize(off + console.size() * 8);
    std::memcpy(sig.data() + off, console.data(), console.size() * 8);
    return sig;
}

/**
 * Simulate one run with empty plans under the campaign's timeout
 * (2x golden cycles) and classify it against the functional run's
 * outputs.
 */
RunRecord
fullEmptyRun(const InjectionCampaign &c, const mc::McConfig &mcCfg)
{
    const workloads::Workload &w = c.workload();
    sim::FuncSim::Config fcfg;
    fcfg.cores = w.threaded ? mcCfg.cores : 1;
    sim::FuncSim fsim(w.program, fcfg);
    EXPECT_EQ(fsim.run().status, sim::FuncSim::Status::Halted);
    const auto want = outputs(w, fsim.memory(), fsim.console());

    RunRecord rec;
    bool halted = false, same = false;
    if (w.threaded) {
        mc::McSim sim(w.program, mcCfg,
                      std::vector<sim::InjectionPlan>(mcCfg.cores));
        auto res = sim.run(2 * c.goldenCycles());
        halted = res.status == mc::McSim::Status::Halted;
        same = outputs(w, sim.memory(), sim.console()) == want;
        rec.injected = res.injectionsApplied;
        rec.committed = res.committed;
        rec.wrongPath = res.injectionsOnWrongPath;
        rec.mcClass = same ? McClass::Masked : McClass::SdcSameCore;
    } else {
        sim::OooSim sim(w.program, sim::OooConfig{}, sim::InjectionPlan{});
        auto res = sim.run(2 * c.goldenCycles());
        halted = res.status == sim::OooSim::Status::Halted;
        same = outputs(w, sim.memory(), sim.console()) == want;
        rec.injected = res.injectionsApplied;
        rec.committed = res.committed;
        rec.wrongPath = res.injectionsOnWrongPath;
    }
    EXPECT_TRUE(halted) << w.name;
    rec.outcome = !halted ? Outcome::Timeout
                  : same  ? Outcome::Masked
                          : Outcome::SDC;
    return rec;
}

void
expectSameRecord(const RunRecord &got, const RunRecord &want,
                 const std::string &what)
{
    EXPECT_EQ(got.outcome, want.outcome) << what;
    EXPECT_EQ(got.committed, want.committed) << what;
    EXPECT_EQ(got.injected, want.injected) << what;
    EXPECT_EQ(got.wrongPath, want.wrongPath) << what;
    EXPECT_EQ(got.mcClass, want.mcClass) << what;
    EXPECT_EQ(got.fault, ErrorCode::None) << what;
}

/** Never plans an event; reports `logWeight` per core plan. */
class EmptyProposal final : public models::ErrorModel
{
  public:
    explicit EmptyProposal(double logWeight) : logWeight_(logWeight) {}

    models::ModelKind kind() const override
    {
        return models::ModelKind::IA;
    }
    std::string describe() const override { return "empty-proposal"; }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &, Rng &) const override
    {
        return {};
    }
    std::vector<sim::InjectionEvent>
    planWeighted(const models::ProgramProfile &profile, Rng &rng,
                 double &logWeight) const override
    {
        logWeight = logWeight_;
        return plan(profile, rng);
    }
    bool weightedProposal() const override { return true; }
    double expectedErrors(const models::ProgramProfile &) const override
    {
        return 0.0;
    }

  private:
    double logWeight_;
};

} // namespace

TEST(GoldenShortcut, MatchesFullOooRunOnEveryPaperWorkload)
{
    const models::DaModel none(0.0);
    for (const auto &name : workloads::workloadNames()) {
        InjectionCampaign c(workloads::buildWorkload(name, 7));
        Rng rng(1);
        RunRecord got = c.executeOne(none, rng);
        EXPECT_GT(got.committed, 0u) << name;
        EXPECT_EQ(got.logWeight, 0.0) << name;
        expectSameRecord(got, fullEmptyRun(c, mc::McConfig{}), name);
        EXPECT_EQ(got.mcClass, McClass::None) << name;
    }
}

TEST(GoldenShortcut, MatchesFullMcRunOnThreadedWorkloads)
{
    const models::DaModel none(0.0);
    for (const char *name : {"k-means-mt", "hotspot-mt"})
        for (unsigned cores : {2u, 4u}) {
            mc::McConfig mcCfg;
            mcCfg.cores = cores;
            InjectionCampaign c(workloads::buildWorkload(name, 7),
                                sim::OooConfig{}, mcCfg);
            Rng rng(1);
            RunRecord got = c.executeOne(none, rng);
            std::string what =
                std::string(name) + " x" + std::to_string(cores);
            EXPECT_GT(got.committed, 0u) << what;
            expectSameRecord(got, fullEmptyRun(c, mcCfg), what);
            EXPECT_EQ(got.mcClass, McClass::Masked) << what;
        }
}

TEST(GoldenShortcut, EmptyProposalKeepsItsWeight)
{
    const EmptyProposal model(-0.75);
    InjectionCampaign sc(workloads::buildWorkload("sobel", 7));
    Rng rng(3);
    RunRecord rec = sc.executeOne(model, rng);
    EXPECT_EQ(rec.outcome, Outcome::Masked);
    EXPECT_EQ(rec.logWeight, -0.75);

    // Two cores plan twice: the run's weight is the product.
    mc::McConfig mcCfg;
    mcCfg.cores = 2;
    InjectionCampaign mt(workloads::buildWorkload("k-means-mt", 7),
                         sim::OooConfig{}, mcCfg);
    Rng rng2(3);
    EXPECT_EQ(mt.executeOne(model, rng2).logWeight, -1.5);

    Rng rng3(4);
    CampaignResult res = sc.run(model, 3, rng3, nullptr);
    EXPECT_EQ(res.masked, 3u);
    EXPECT_TRUE(res.weightedModel);
    EXPECT_DOUBLE_EQ(res.weightSum, 3.0 * std::exp(-0.75));
    EXPECT_EQ(res.committedInstructions, 3 * rec.committed);
}
