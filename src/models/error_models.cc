#include "models/error_models.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "util/crc32.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::models {

using fpu::FpuOp;
using sim::InjectionEvent;

const char *
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::DA: return "DA-model";
      case ModelKind::IA: return "IA-model";
      case ModelKind::WA: return "WA-model";
    }
    return "?";
}

ProgramProfile
ProgramProfile::fromFuncSim(const sim::FuncSim &sim, unsigned core)
{
    ProgramProfile p;
    p.totalInstructions = sim.instructions(core);
    for (unsigned i = 0; i < isa::kNumOps; ++i) {
        auto op = static_cast<isa::Op>(i);
        if (isa::hasDest(op))
            p.instructionsWithDest += sim.opCount(core, op);
        if (isa::isFpArith(op))
            p.fpOpCounts[static_cast<size_t>(isa::fpuOpFor(op))] +=
                sim.opCount(core, op);
    }
    return p;
}

ProgramProfile &
ProgramProfile::operator+=(const ProgramProfile &other)
{
    totalInstructions += other.totalInstructions;
    instructionsWithDest += other.instructionsWithDest;
    for (size_t i = 0; i < fpOpCounts.size(); ++i)
        fpOpCounts[i] += other.fpOpCounts[i];
    return *this;
}

// ---------------------------------------------------------------------
// DA model
// ---------------------------------------------------------------------

DaModel::DaModel(double errorRatio) : errorRatio_(errorRatio)
{
    fatal_if(errorRatio < 0.0 || errorRatio > 1.0,
             "DA error ratio %f out of range", errorRatio);
}

std::string
DaModel::describe() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "DA-model(ER=%.2e)", errorRatio_);
    return buf;
}

double
DaModel::expectedErrors(const ProgramProfile &profile) const
{
    return std::ceil(static_cast<double>(profile.totalInstructions) *
                     errorRatio_);
}

std::vector<InjectionEvent>
DaModel::plan(const ProgramProfile &profile, Rng &rng) const
{
    // #errors = ceil(#instructions x fixed ER), each a single uniform
    // bit flip in a random destination register.
    auto k = static_cast<uint64_t>(expectedErrors(profile));
    k = std::min(k, profile.instructionsWithDest);
    std::set<uint64_t> indices;
    while (indices.size() < k)
        indices.insert(rng.nextBounded(profile.instructionsWithDest));
    std::vector<InjectionEvent> events;
    events.reserve(k);
    for (uint64_t idx : indices) {
        InjectionEvent ev{};
        ev.kind = InjectionEvent::Kind::AnyDest;
        ev.index = idx;
        ev.mask = 1ULL << rng.nextBounded(64);
        events.push_back(ev);
    }
    return events;
}

// ---------------------------------------------------------------------
// Statistical models (IA / WA)
// ---------------------------------------------------------------------

StatisticalModel::StatisticalModel(
    ModelKind kind, std::string name,
    std::array<OpModelStats, fpu::kNumFpuOps> stats)
    : kind_(kind), name_(std::move(name)), stats_(std::move(stats))
{
}

std::array<OpModelStats, fpu::kNumFpuOps>
StatisticalModel::fromCampaign(const timing::CampaignStats &stats)
{
    std::array<OpModelStats, fpu::kNumFpuOps> out;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &s = stats.perOp[o];
        OpModelStats &m = out[o];
        m.faultyProb = s.errorRatio();
        for (unsigned b = 0; b < 64; ++b)
            m.ber[b] = s.ber(b);
        m.maskPool = s.maskPool;
    }
    return out;
}

double
StatisticalModel::expectedErrors(const ProgramProfile &profile) const
{
    double e = 0.0;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o)
        e += static_cast<double>(profile.fpOpCounts[o]) *
             stats_[o].faultyProb;
    return e;
}

std::vector<InjectionEvent>
StatisticalModel::plan(const ProgramProfile &profile, Rng &rng) const
{
    std::vector<InjectionEvent> events;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const OpModelStats &m = stats_[o];
        uint64_t n = profile.fpOpCounts[o];
        if (n == 0 || m.faultyProb <= 0.0 || m.maskPool.empty())
            continue;
        uint64_t k = rng.nextBinomial(n, m.faultyProb);
        if (k == 0)
            continue;
        std::set<uint64_t> indices;
        k = std::min(k, n);
        while (indices.size() < k)
            indices.insert(rng.nextBounded(n));
        for (uint64_t idx : indices) {
            InjectionEvent ev{};
            ev.kind = InjectionEvent::Kind::FpOp;
            ev.op = static_cast<FpuOp>(o);
            ev.index = idx;
            ev.mask = m.maskPool[rng.nextBounded(m.maskPool.size())];
            events.push_back(ev);
        }
    }
    return events;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace {

constexpr size_t kMaxStoredMasks = 4096;
// The campaign reservoir shares the cap, so pooled masks always
// round-trip through the cache without loss.
static_assert(kMaxStoredMasks == timing::OpErrorStats::kMaskPoolCap);
// v2 adds the CRC-guarded envelope; v1 files (no CRC) are treated as
// Corrupt if ever encountered, but the cache revision suffix in the
// path keeps them from being opened in the first place.
constexpr const char *kMagic = "tea-campaign-stats-v2";

std::string
renderStatsBody(const timing::CampaignStats &stats)
{
    std::ostringstream out;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &s = stats.perOp[o];
        out << fpu::fpuOpName(static_cast<FpuOp>(o)) << " " << s.total
            << " " << s.faulty << "\n";
        for (unsigned b = 0; b < 64; ++b)
            out << s.bitErrors[b] << (b == 63 ? "\n" : " ");
        size_t nMasks = std::min(s.maskPool.size(), kMaxStoredMasks);
        out << nMasks << "\n";
        for (size_t i = 0; i < nMasks; ++i)
            out << std::hex << s.maskPool[i] << std::dec
                << (i + 1 == nMasks ? "\n" : " ");
        if (nMasks == 0)
            out << "\n";
    }
    return out.str();
}

bool
parseStatsBody(std::istream &in, timing::CampaignStats &stats)
{
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        auto &s = stats.perOp[o];
        std::string name;
        if (!(in >> name >> s.total >> s.faulty))
            return false;
        if (name != fpu::fpuOpName(static_cast<FpuOp>(o)))
            return false;
        for (unsigned b = 0; b < 64; ++b)
            if (!(in >> s.bitErrors[b]))
                return false;
        size_t nMasks;
        if (!(in >> nMasks) || nMasks > kMaxStoredMasks)
            return false;
        s.maskPool.resize(nMasks);
        for (size_t i = 0; i < nMasks; ++i)
            if (!(in >> std::hex >> s.maskPool[i] >> std::dec))
                return false;
        s.sealLoadedPool();
    }
    return true;
}

} // namespace

bool
saveCampaignStats(const std::string &path,
                  const timing::CampaignStats &stats)
{
    std::string body = renderStatsBody(stats);
    char crcLine[48];
    std::snprintf(crcLine, sizeof(crcLine), "crc %08x %zu\n",
                  crc32(body.data(), body.size()), body.size());
    // Staged + renamed: concurrent fleet workers racing to fill the
    // same cold cache can interleave freely — each publishes a
    // complete file or nothing, and last-writer-wins is benign because
    // every writer produces identical (deterministic) statistics.
    if (!atomicWriteFile(path,
                         kMagic + std::string("\n") + crcLine + body)) {
        warn("cannot write campaign stats cache '%s'", path.c_str());
        return false;
    }
    return true;
}

CacheLoad
loadCampaignStats(const std::string &path, timing::CampaignStats &stats)
{
    std::ifstream in(path);
    if (!in)
        return CacheLoad::Missing;
    std::string magic;
    std::getline(in, magic);
    if (magic != kMagic)
        return CacheLoad::Corrupt;
    std::string tag;
    uint32_t storedCrc = 0;
    size_t storedLen = 0;
    if (!(in >> tag >> std::hex >> storedCrc >> std::dec >> storedLen) ||
        tag != "crc")
        return CacheLoad::Corrupt;
    in.ignore(1); // the newline after the crc line
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (body.size() != storedLen ||
        crc32(body.data(), body.size()) != storedCrc)
        return CacheLoad::Corrupt;
    std::istringstream bodyIn(body);
    if (!parseStatsBody(bodyIn, stats))
        return CacheLoad::Corrupt;
    return CacheLoad::Loaded;
}

} // namespace tea::models
