#include "core/toolflow.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/func_sim.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace tea::core {

using timing::CampaignStats;

namespace {

/**
 * Strict environment-integer parse: the whole value must be one
 * integer (base 0: decimal/hex/octal). Garbage or overflow keeps the
 * default with a warn, so a typo degrades to the documented default
 * instead of silently running a different experiment.
 */
bool
parseEnvI64(const char *name, const char *value, int64_t &out)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(value, &end, 0);
    if (end == value || *end != '\0' || errno == ERANGE) {
        warn("ignoring malformed %s='%s'", name, value);
        return false;
    }
    out = v;
    return true;
}

bool
parseEnvU64(const char *name, const char *value, uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 0);
    if (end == value || *end != '\0' || errno == ERANGE ||
        value[0] == '-') {
        warn("ignoring malformed %s='%s'", name, value);
        return false;
    }
    out = v;
    return true;
}

bool
parseEnvDouble(const char *name, const char *value, double &out)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
        warn("ignoring malformed %s='%s'", name, value);
        return false;
    }
    out = v;
    return true;
}

} // namespace

ToolflowOptions
optionsFromEnv()
{
    ToolflowOptions opt;
    if (const char *runs = std::getenv("REPRO_RUNS")) {
        int64_t v;
        if (parseEnvI64("REPRO_RUNS", runs, v)) {
            if (v < 1) {
                warn("clamping REPRO_RUNS=%lld to 1",
                     static_cast<long long>(v));
                v = 1;
            } else if (v > 1000000) {
                warn("clamping REPRO_RUNS=%lld to 1000000",
                     static_cast<long long>(v));
                v = 1000000;
            }
            opt.runsPerCell = static_cast<int>(v);
        }
    }
    if (const char *full = std::getenv("REPRO_FULL");
        full && full[0] == '1') {
        opt.runsPerCell = inject::kStatisticalRuns;
        opt.iaCountPerOp = 20000;
        opt.waMaxOps = 100000;
        opt.daSampleOps = 100000;
    }
    if (const char *seed = std::getenv("REPRO_SEED")) {
        uint64_t v;
        if (parseEnvU64("REPRO_SEED", seed, v))
            opt.seed = v;
    }
    if (const char *cache = std::getenv("REPRO_CACHE"))
        opt.cacheDir = cache;
    if (const char *resume = std::getenv("REPRO_RESUME"))
        opt.resume = resume[0] == '1';
    if (const char *dl = std::getenv("REPRO_RUN_DEADLINE_MS")) {
        int64_t v;
        if (parseEnvI64("REPRO_RUN_DEADLINE_MS", dl, v)) {
            if (v < 0) {
                warn("clamping REPRO_RUN_DEADLINE_MS=%lld to 0 "
                     "(disabled)",
                     static_cast<long long>(v));
                v = 0;
            }
            opt.runDeadlineMs = v;
        }
    }
    if (const char *ci = std::getenv("REPRO_CI_TARGET")) {
        double v;
        if (parseEnvDouble("REPRO_CI_TARGET", ci, v)) {
            if (v < 0.0) {
                warn("clamping REPRO_CI_TARGET=%g to 0 (adaptive off)",
                     v);
                v = 0.0;
            } else if (v >= 0.5) {
                warn("clamping REPRO_CI_TARGET=%g to 0.49", v);
                v = 0.49;
            }
            opt.ciTarget = v;
        }
    }
    if (const char *conf = std::getenv("REPRO_CI_CONF")) {
        double v;
        if (parseEnvDouble("REPRO_CI_CONF", conf, v)) {
            if (v <= 0.5 || v >= 1.0) {
                warn("REPRO_CI_CONF=%g outside (0.5, 1); keeping %g", v,
                     opt.ciConf);
            } else {
                opt.ciConf = v;
            }
        }
    }
    if (const char *cap = std::getenv("REPRO_MAX_RUNS")) {
        uint64_t v;
        if (parseEnvU64("REPRO_MAX_RUNS", cap, v))
            opt.maxAdaptiveRuns = v;
    }
    if (const char *is = std::getenv("REPRO_IS"))
        opt.isEnable = is[0] == '1';
    if (const char *boost = std::getenv("REPRO_IS_BOOST")) {
        double v;
        if (parseEnvDouble("REPRO_IS_BOOST", boost, v)) {
            if (v < 1.0) {
                warn("clamping REPRO_IS_BOOST=%g to 1 (no tilt)", v);
                v = 1.0;
            } else if (v > 64.0) {
                warn("clamping REPRO_IS_BOOST=%g to 64", v);
                v = 64.0;
            }
            opt.isBoost = v;
        }
    }
    if (const char *floor = std::getenv("REPRO_IS_FLOOR")) {
        double v;
        if (parseEnvDouble("REPRO_IS_FLOOR", floor, v)) {
            if (v <= 0.0 || v > 1.0) {
                warn("REPRO_IS_FLOOR=%g outside (0, 1]; keeping %g", v,
                     opt.isFloor);
            } else {
                opt.isFloor = v;
            }
        }
    }
    if (const char *mt = std::getenv("REPRO_IS_MAXTILT")) {
        double v;
        if (parseEnvDouble("REPRO_IS_MAXTILT", mt, v)) {
            if (v < 0.1) {
                warn("clamping REPRO_IS_MAXTILT=%g to 0.1", v);
                v = 0.1;
            }
            opt.isMaxTilted = v;
        }
    }
    if (const char *corpus = std::getenv("REPRO_IS_CORPUS")) {
        uint64_t v;
        if (parseEnvU64("REPRO_IS_CORPUS", corpus, v)) {
            if (v < 100) {
                warn("clamping REPRO_IS_CORPUS=%llu to 100",
                     static_cast<unsigned long long>(v));
                v = 100;
            } else if (v > 1000000) {
                warn("clamping REPRO_IS_CORPUS=%llu to 1000000",
                     static_cast<unsigned long long>(v));
                v = 1000000;
            }
            opt.isCorpusPerOp = v;
        }
    }
    if (const char *cores = std::getenv("REPRO_MC_CORES")) {
        uint64_t v;
        if (parseEnvU64("REPRO_MC_CORES", cores, v)) {
            if (v < 1) {
                warn("clamping REPRO_MC_CORES=%llu to 1",
                     static_cast<unsigned long long>(v));
                v = 1;
            } else if (v > isa::kMcMaxCores) {
                warn("clamping REPRO_MC_CORES=%llu to %u",
                     static_cast<unsigned long long>(v),
                     isa::kMcMaxCores);
                v = isa::kMcMaxCores;
            }
            opt.mcCores = static_cast<unsigned>(v);
        }
    }
    if (const char *q = std::getenv("REPRO_MC_QUANTUM")) {
        uint64_t v;
        if (parseEnvU64("REPRO_MC_QUANTUM", q, v)) {
            if (v < 1) {
                warn("clamping REPRO_MC_QUANTUM=%llu to 1",
                     static_cast<unsigned long long>(v));
                v = 1;
            } else if (v > 1000000) {
                warn("clamping REPRO_MC_QUANTUM=%llu to 1000000",
                     static_cast<unsigned long long>(v));
                v = 1000000;
            }
            opt.mcQuantum = static_cast<unsigned>(v);
        }
    }
    opt.threads = ThreadPool::defaultThreads();
    return opt;
}

Toolflow::Toolflow(ToolflowOptions opt)
    : opt_(std::move(opt)),
      pool_(std::make_unique<ThreadPool>(opt_.threads)),
      core_(std::make_unique<fpu::FpuCore>())
{
    // First SIGINT/SIGTERM flips the process-wide cancel token; the
    // campaigns poll it cooperatively, flush their journals, and the
    // drivers print partial results instead of dying mid-write.
    installShutdownHandlers();
    // Arm REPRO_TRACE / REPRO_METRICS (idempotent; bench mains may
    // already have armed them from --trace/--metrics flags).
    obs::configureFromEnv();
    if (!opt_.cacheDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.cacheDir, ec);
        if (ec) {
            warn("cannot create cache dir '%s'; caching disabled",
                 opt_.cacheDir.c_str());
            opt_.cacheDir.clear();
        }
    }
}

size_t
Toolflow::pointFor(double vrFrac)
{
    int key = static_cast<int>(vrFrac * 10000 + 0.5);
    auto it = points_.find(key);
    if (it != points_.end())
        return it->second;
    double scale = vm_.delayFactorAtReduction(vrFrac);
    size_t idx = core_->addOperatingPoint(scale);
    points_[key] = idx;
    return idx;
}

std::string
Toolflow::cacheTag(const char *prefix, const std::string &name,
                   uint64_t n)
{
    // Sanitize: the name lands in a filename, so anything outside
    // [A-Za-z0-9._-] becomes '_'.
    std::string safe;
    safe.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        safe.push_back(ok ? c : '_');
    }
    // Long names are shortened to a readable prefix plus a CRC of the
    // *original* string: bounded length, and no two distinct names map
    // to the same tag the way plain truncation would.
    constexpr size_t kMaxName = 32;
    if (safe.size() > kMaxName) {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "~%08x",
                      crc32(name.data(), name.size()));
        safe = safe.substr(0, kMaxName - 9) + suffix;
    }
    char count[32];
    std::snprintf(count, sizeof(count), "_n%llu",
                  static_cast<unsigned long long>(n));
    return std::string(prefix) + "_" + safe + count;
}

std::string
Toolflow::cachePath(const std::string &tag, double vrFrac) const
{
    if (opt_.cacheDir.empty())
        return "";
    // "p3" names the cache-file revision: p1 was the sharded-campaign
    // statistics without an integrity envelope; p2 added the
    // CRC-guarded format; p3 switched the levelized engine's arrival
    // accumulation from float to double, which can reclassify
    // capture-edge samples and so invalidates cached statistics.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_vr%02d_s%llu_p3.stats",
                  static_cast<int>(vrFrac * 100 + 0.5),
                  static_cast<unsigned long long>(opt_.seed));
    return opt_.cacheDir + "/" + tag + buf;
}

bool
Toolflow::quarantineCache(const std::string &path)
{
    // The first .bad capture is the interesting evidence (it shows
    // what originally rotted); later corruption of the regenerated
    // file claims .bad2, .bad3, ... instead of overwriting it.
    std::error_code lastEc;
    for (int i = 1; i <= 9; ++i) {
        char suffix[8];
        if (i == 1)
            std::snprintf(suffix, sizeof(suffix), ".bad");
        else
            std::snprintf(suffix, sizeof(suffix), ".bad%d", i);
        std::string bad = path + suffix;
        std::error_code ec;
        if (std::filesystem::exists(bad, ec))
            continue;
        std::filesystem::rename(path, bad, ec);
        if (!ec) {
            warn("corrupt cache '%s' quarantined to '%s'; regenerating",
                 path.c_str(), bad.c_str());
            return true;
        }
        lastEc = ec;
    }
    warn("corrupt cache '%s' could not be quarantined (%s); "
         "regenerating over it",
         path.c_str(),
         lastEc ? lastEc.message().c_str() : "no free quarantine slot");
    return false;
}

namespace {

/**
 * Process-wide singleflight over on-disk characterization caches.
 * Two concurrent campaigns (daemon executor threads, each with its own
 * Toolflow but one shared cache dir) that need the same
 * (unit, operating point) characterization would otherwise both run
 * the gate-level campaign; instead the first becomes the leader and
 * the rest wait, then re-read the leader's freshly saved cache file.
 * Keyed on the cache *path* — the full on-disk identity (tag, VR,
 * seed, revision) — so distinct characterizations never serialize.
 */
struct StatsSingleflight
{
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::string> inflight;
};

StatsSingleflight &
statsSingleflight()
{
    static StatsSingleflight sf;
    return sf;
}

} // namespace

const CampaignStats &
Toolflow::characterize(
    const std::string &tag, double vrFrac,
    const std::function<CampaignStats(size_t)> &run)
{
    char keyBuf[32];
    std::snprintf(keyBuf, sizeof(keyBuf), "@%.4f", vrFrac);
    std::string key = tag + keyBuf;
    auto it = statsCache_.find(key);
    if (it != statsCache_.end())
        return it->second;

    obs::Registry &reg = obs::Registry::global();
    std::string path = cachePath(tag, vrFrac);
    CampaignStats stats;
    bool leader = false;
    StatsSingleflight &sf = statsSingleflight();
    auto releaseLead = [&] {
        if (!leader)
            return;
        std::lock_guard<std::mutex> lock(sf.mu);
        sf.inflight.erase(path);
        sf.cv.notify_all();
    };
    if (!path.empty()) {
        for (;;) {
            switch (models::loadCampaignStats(path, stats)) {
              case models::CacheLoad::Loaded:
                releaseLead();
                inform("loaded cached characterization %s",
                       path.c_str());
                reg.counter(obs::metric::kCacheHits, "",
                            "characterizations served from the stats "
                            "cache")
                    .inc(1);
                return statsCache_.emplace(key, std::move(stats))
                    .first->second;
              case models::CacheLoad::Missing:
                reg.counter(obs::metric::kCacheMisses, "",
                            "characterizations recomputed on a cold "
                            "cache")
                    .inc(1);
                break; // cold cache: the quiet, normal case
              case models::CacheLoad::Corrupt:
                reg.counter(obs::metric::kCacheCorrupt, "",
                            "cache files quarantined after failing "
                            "integrity checks")
                    .inc(1);
                quarantineCache(path);
                stats = CampaignStats{};
                break;
            }
            std::unique_lock<std::mutex> lock(sf.mu);
            if (!sf.inflight.count(path)) {
                sf.inflight.insert(path);
                leader = true;
                break;
            }
            // Someone else is computing this exact characterization
            // right now: wait, then re-read their saved cache.
            reg.counter(obs::metric::kCacheSingleflight, "",
                        "characterizations that waited on a concurrent "
                        "identical computation")
                .inc(1);
            sf.cv.wait(lock,
                       [&] { return !sf.inflight.count(path); });
        }
    }
    size_t point = pointFor(vrFrac);
    obs::Span span("toolflow.characterize", "toolflow");
    stats = run(point);
    if (stats.interrupted) {
        // Partial statistics must never feed models or caches.
        inform("characterization '%s' interrupted; partial statistics "
               "discarded — rerun to characterize fully",
               key.c_str());
        std::exit(130);
    }
    if (stats.engineFaults > 0) {
        warn("characterization '%s' degraded (%llu shard(s) dropped "
             "after repeated faults); statistics kept for this run but "
             "not cached",
             key.c_str(),
             static_cast<unsigned long long>(stats.engineFaults));
    } else if (!path.empty()) {
        models::saveCampaignStats(path, stats);
    }
    releaseLead();
    return statsCache_.emplace(key, std::move(stats)).first->second;
}

namespace {

/**
 * Adaptive characterizations live under their own cache names: the
 * run count is decided by convergence, so the interval parameters —
 * not an op count — are what identify the result. Keeping the name
 * distinct also keeps every fixed-size cache file byte-identical
 * whether or not adaptive mode was ever used.
 */
std::string
adaptiveName(const char *base, const ToolflowOptions &opt)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s-a%g-c%g", base, opt.ciTarget,
                  opt.ciConf);
    return buf;
}

/** Planner settings shared by the adaptive characterizations. */
stats::PlannerConfig
plannerConfig(const ToolflowOptions &opt, uint64_t cap)
{
    stats::PlannerConfig cfg;
    cfg.ciTarget = opt.ciTarget;
    cfg.ciConf = opt.ciConf;
    cfg.maxPerStratum = cap;
    return cfg;
}

} // namespace

const CampaignStats &
Toolflow::iaStats(double vrFrac)
{
    if (opt_.adaptive()) {
        // Cap far above any realistic convergence point; REPRO_MAX_RUNS
        // tightens it when gate-level time is the binding constraint.
        uint64_t cap = opt_.maxAdaptiveRuns ? opt_.maxAdaptiveRuns
                                            : (1ULL << 20);
        std::string tag =
            cacheTag("ia", adaptiveName("rnd", opt_), cap);
        return characterize(tag, vrFrac, [&](size_t point) {
            Rng rng(opt_.seed ^ 0x1a1a1aULL);
            inform("adaptive IA characterization at VR%.0f "
                   "(half-width %g at %g%%, %u threads)...",
                   vrFrac * 100, opt_.ciTarget, opt_.ciConf * 100,
                   pool_->numThreads());
            return timing::runAdaptiveRandomCampaign(
                *core_, point, plannerConfig(opt_, cap), rng,
                pool_.get(), &cancelWatchdog_);
        });
    }
    std::string tag = cacheTag("ia", "rnd", opt_.iaCountPerOp);
    return characterize(tag, vrFrac, [&](size_t point) {
        Rng rng(opt_.seed ^ 0x1a1a1aULL);
        inform("IA characterization at VR%.0f (%llu ops/type, "
               "%u threads)...",
               vrFrac * 100,
               static_cast<unsigned long long>(opt_.iaCountPerOp),
               pool_->numThreads());
        return timing::runRandomCampaign(*core_, point,
                                         opt_.iaCountPerOp, rng,
                                         pool_.get(),
                                         &cancelWatchdog_);
    });
}

const CampaignStats &
Toolflow::waStats(const std::string &workload, double vrFrac)
{
    // A threaded workload's trace is a function of the core count, so
    // its statistics are cached per count. Single-core names stay as
    // they were, keeping existing cache files valid.
    std::string traced = workload;
    if (workloads::isThreadedWorkload(workload))
        traced += "-c" + std::to_string(opt_.mcCores);
    if (opt_.adaptive()) {
        // The window list is the fixed-N geometry (extended when
        // REPRO_MAX_RUNS asks for more); a converged adaptive run
        // consumes a bit-exact prefix of it.
        uint64_t cap = opt_.maxAdaptiveRuns ? opt_.maxAdaptiveRuns
                                            : opt_.waMaxOps;
        uint64_t maxOps = std::max(opt_.waMaxOps, cap);
        std::string tag = cacheTag(
            "wa", adaptiveName(traced.c_str(), opt_), maxOps);
        return characterize(tag, vrFrac, [&](size_t point) {
            inform("adaptive WA characterization of %s at VR%.0f "
                   "(half-width %g at %g%%, %u threads)...",
                   workload.c_str(), vrFrac * 100, opt_.ciTarget,
                   opt_.ciConf * 100, pool_->numThreads());
            return timing::runAdaptiveTraceCampaign(
                *core_, point, trace(workload), maxOps,
                plannerConfig(opt_, cap), pool_.get(),
                &cancelWatchdog_);
        });
    }
    std::string tag = cacheTag("wa", traced, opt_.waMaxOps);
    return characterize(tag, vrFrac, [&](size_t point) {
        inform("WA characterization of %s at VR%.0f (%u threads)...",
               workload.c_str(), vrFrac * 100, pool_->numThreads());
        return timing::runTraceCampaign(*core_, point, trace(workload),
                                        opt_.waMaxOps, pool_.get(),
                                        &cancelWatchdog_);
    });
}

double
Toolflow::daErrorRatio(double vrFrac)
{
    int key = static_cast<int>(vrFrac * 10000 + 0.5);
    auto it = daEr_.find(key);
    if (it != daEr_.end())
        return it->second;
    // Monte-Carlo over instructions randomly extracted from all
    // benchmarks (paper Section IV.C.1) — realized as an even trace
    // sample per workload.
    std::string tag =
        opt_.adaptive()
            ? cacheTag("da", adaptiveName("all", opt_),
                       opt_.daSampleOps)
            : cacheTag("da", "all", opt_.daSampleOps);
    const CampaignStats &stats =
        characterize(tag, vrFrac, [&](size_t point) {
            inform("DA calibration at VR%.0f...", vrFrac * 100);
            CampaignStats merged;
            uint64_t per =
                opt_.daSampleOps / workloads::workloadNames().size();
            for (const auto &name : workloads::workloadNames()) {
                auto s =
                    opt_.adaptive()
                        ? timing::runAdaptiveTraceCampaign(
                              *core_, point, trace(name), per,
                              plannerConfig(opt_, per), pool_.get(),
                              &cancelWatchdog_)
                        : timing::runTraceCampaign(*core_, point,
                                                   trace(name), per,
                                                   pool_.get(),
                                                   &cancelWatchdog_);
                // Degradation and interruption are properties of the
                // merged calibration too.
                merged.merge(s);
                if (merged.interrupted)
                    break;
            }
            return merged;
        });
    double er = stats.errorRatio();
    daEr_[key] = er;
    return er;
}

models::DaModel
Toolflow::daModel(double vrFrac)
{
    return models::DaModel(daErrorRatio(vrFrac));
}

models::IaModel
Toolflow::iaModel(double vrFrac)
{
    return models::IaModel(iaStats(vrFrac));
}

models::WaModel
Toolflow::waModel(const std::string &workload, double vrFrac)
{
    return models::WaModel(workload, waStats(workload, vrFrac));
}

const surrogate::ErrorSurrogate &
Toolflow::surrogate()
{
    if (surrogate_)
        return *surrogate_;

    // Identity: everything the trained weights are a function of. The
    // VR levels enter via a CRC over their exact bit patterns, so two
    // level lists that differ in any ulp train separately.
    std::string vrBits;
    for (double vr : opt_.vrLevels) {
        char buf[24];
        uint64_t bits;
        std::memcpy(&bits, &vr, sizeof(bits));
        std::snprintf(buf, sizeof(buf), "%016llx,",
                      static_cast<unsigned long long>(bits));
        vrBits += buf;
    }
    char identity[128];
    std::snprintf(identity, sizeof(identity),
                  "surrogate s%llu n%llu v%08x",
                  static_cast<unsigned long long>(opt_.seed),
                  static_cast<unsigned long long>(opt_.isCorpusPerOp),
                  crc32(vrBits.data(), vrBits.size()));
    std::string path;
    if (!opt_.cacheDir.empty()) {
        char file[96];
        std::snprintf(file, sizeof(file),
                      "/surrogate_s%llu_n%llu_v%08x_p1.sg",
                      static_cast<unsigned long long>(opt_.seed),
                      static_cast<unsigned long long>(
                          opt_.isCorpusPerOp),
                      crc32(vrBits.data(), vrBits.size()));
        path = opt_.cacheDir + file;
    }

    auto sg = std::make_unique<surrogate::ErrorSurrogate>();
    obs::Registry &reg = obs::Registry::global();
    bool cached = !path.empty() && sg->load(path, identity);
    if (cached) {
        inform("loaded cached surrogate %s (AUC %.3f)", path.c_str(),
               sg->heldOutAuc());
        reg.counter(obs::metric::kCacheHits, "",
                    "characterizations served from the stats cache")
            .inc(1);
    } else {
        std::vector<std::pair<double, size_t>> vrPoints;
        for (double vr : opt_.vrLevels)
            vrPoints.emplace_back(vr, pointFor(vr));
        surrogate::CorpusConfig cfg;
        cfg.seed = opt_.seed;
        cfg.opsPerOpPerVr = opt_.isCorpusPerOp;
        inform("training error surrogate (%llu ops/type x %zu VR "
               "levels)...",
               static_cast<unsigned long long>(cfg.opsPerOpPerVr),
               opt_.vrLevels.size());
        obs::Span span("toolflow.surrogate", "toolflow");
        auto t0 = std::chrono::steady_clock::now();
        sg->train(*core_, vrPoints, cfg);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        reg.histogram(obs::metric::kSurrogateTrainMs,
                      obs::latencyBucketsMs(), "",
                      "wall-clock ms spent training the error "
                      "surrogate")
            .observe(ms);
        inform("surrogate trained: held-out AUC %.3f over %llu "
               "corpus ops (%.0f ms)",
               sg->heldOutAuc(),
               static_cast<unsigned long long>(sg->corpusOps()), ms);
        if (!path.empty())
            sg->save(path, identity);
    }
    // Fractional gauges export in parts-per-million (gauges are
    // integral); see docs/OBSERVABILITY.md.
    reg.gauge(obs::metric::kSurrogateAuc, "",
              "held-out surrogate AUC in parts per million")
        .set(static_cast<int64_t>(sg->heldOutAuc() * 1e6));
    reg.counter(obs::metric::kSurrogateCorpusOps, "",
                "gate-level DTA ops spent building surrogate corpora")
        .inc(cached ? 0 : sg->corpusOps());
    surrogate_ = std::move(sg);
    return *surrogate_;
}

const workloads::Workload &
Toolflow::workload(const std::string &name)
{
    auto it = workloads_.find(name);
    if (it == workloads_.end()) {
        it = workloads_
                 .emplace(name, workloads::buildWorkload(
                                    name, opt_.seed, opt_.workloadScale))
                 .first;
    }
    return it->second;
}

const std::vector<sim::FpTraceEntry> &
Toolflow::trace(const std::string &name)
{
    auto it = traces_.find(name);
    if (it == traces_.end()) {
        const auto &w = workload(name);
        std::vector<sim::FpTraceEntry> tr;
        // Threaded workloads trace on N harts; entries merge in the
        // deterministic interleave order, so the trace is a pure
        // function of (workload, cores).
        sim::FuncSim::Config fcfg;
        fcfg.cores = w.threaded ? opt_.mcCores : 1;
        sim::FuncSim sim(w.program, fcfg);
        sim.setFpTrace(&tr);
        auto res = sim.run();
        fatal_if(res.status != sim::FuncSim::Status::Halted,
                 "workload '%s' did not halt while tracing",
                 name.c_str());
        it = traces_.emplace(name, std::move(tr)).first;
    }
    return it->second;
}

mc::McConfig
Toolflow::mcConfig() const
{
    mc::McConfig mcCfg;
    mcCfg.cores = opt_.mcCores;
    mcCfg.quantum = opt_.mcQuantum;
    return mcCfg;
}

inject::InjectionCampaign &
Toolflow::campaign(const std::string &name)
{
    auto it = campaigns_.find(name);
    if (it == campaigns_.end()) {
        it = campaigns_
                 .emplace(name,
                          std::make_unique<inject::InjectionCampaign>(
                              workload(name), sim::OooConfig{},
                              mcConfig()))
                 .first;
    }
    return *it->second;
}

void
Toolflow::prepareCampaigns(const std::vector<std::string> &names)
{
    // Workloads are built and the maps written on this thread only;
    // the pool runs nothing but the independent golden preparations.
    std::vector<std::string> todo;
    for (const auto &name : names)
        if (!campaigns_.count(name) &&
            std::find(todo.begin(), todo.end(), name) == todo.end()) {
            workload(name);
            todo.push_back(name);
        }
    const mc::McConfig mcCfg = mcConfig();
    auto built =
        pool_->parallelMap<std::unique_ptr<inject::InjectionCampaign>>(
            todo.size(), [&](uint64_t i, unsigned) {
                auto c = inject::InjectionCampaign::create(
                    workloads_.at(todo[i]), sim::OooConfig{}, mcCfg);
                return c ? std::move(c.value()) : nullptr;
            });
    for (size_t i = 0; i < todo.size(); ++i)
        if (built[i])
            campaigns_.emplace(todo[i], std::move(built[i]));
}

} // namespace tea::core
