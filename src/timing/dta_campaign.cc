#include "timing/dta_campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace tea::timing {

using fpu::FpuOp;

namespace {

/** Heap order of the reservoir: the root is the entry to evict next. */
inline bool
reservoirAfter(uint64_t k1, uint64_t m1, uint64_t k2, uint64_t m2)
{
    return k1 != k2 ? k1 > k2 : m1 > m2;
}

/** Hand-rolled sift-down over the two parallel arrays: the reservoir
 * layout must not depend on the standard library's heap algorithm. */
void
reservoirSiftDown(std::vector<uint64_t> &pool,
                  std::vector<uint64_t> &keys, size_t i)
{
    size_t n = pool.size();
    for (;;) {
        size_t worst = i;
        for (size_t ch = 2 * i + 1; ch <= 2 * i + 2 && ch < n; ++ch)
            if (reservoirAfter(keys[ch], pool[ch], keys[worst],
                               pool[worst]))
                worst = ch;
        if (worst == i)
            return;
        std::swap(keys[i], keys[worst]);
        std::swap(pool[i], pool[worst]);
        i = worst;
    }
}

void
reservoirHeapify(std::vector<uint64_t> &pool, std::vector<uint64_t> &keys)
{
    for (size_t i = pool.size() / 2; i-- > 0;)
        reservoirSiftDown(pool, keys, i);
}

} // namespace

void
OpErrorStats::addMask(uint64_t mask, uint64_t key)
{
    if (maskPool.size() < kMaskPoolCap) {
        maskPool.push_back(mask);
        maskKeys.push_back(key);
        // Reaching the cap establishes the heap invariant every later
        // insert relies on; below it the pool stays in insert order.
        if (maskPool.size() == kMaskPoolCap)
            reservoirHeapify(maskPool, maskKeys);
        return;
    }
    if (!reservoirAfter(maskKeys[0], maskPool[0], key, mask))
        return; // newcomer ranks at or after the current worst
    maskKeys[0] = key;
    maskPool[0] = mask;
    reservoirSiftDown(maskPool, maskKeys, 0);
}

void
OpErrorStats::sealLoadedPool()
{
    // Sequential keys, no reordering: the saved pool layout must
    // survive a cache round-trip because the statistical model samples
    // masks by index. Loaded stats are terminal (never merged), so the
    // reservoir's heap invariant is not needed here.
    maskKeys.resize(maskPool.size());
    for (size_t i = 0; i < maskKeys.size(); ++i)
        maskKeys[i] = i;
}

uint64_t
maskPriority(uint64_t seed, unsigned op, uint64_t seq)
{
    uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (seq + 1));
    z ^= static_cast<uint64_t>(op) << 56;
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
}

void
OpErrorStats::merge(const OpErrorStats &o)
{
    total += o.total;
    faulty += o.faulty;
    for (unsigned i = 0; i < 64; ++i)
        bitErrors[i] += o.bitErrors[i];
    // Hand-built stats may carry a bare pool; default to sequential
    // keys so merging them stays well-defined.
    for (size_t i = 0; i < o.maskPool.size(); ++i)
        addMask(o.maskPool[i],
                i < o.maskKeys.size() ? o.maskKeys[i] : i);
}

stats::Interval
OpErrorStats::errorInterval(double conf) const
{
    return stats::wilson(faulty, total, conf);
}

stats::Interval
OpErrorStats::berInterval(unsigned bit, double conf) const
{
    return stats::wilson(bitErrors[bit], total, conf);
}

stats::Interval
CampaignStats::errorInterval(double conf) const
{
    return stats::wilson(totalFaulty(), totalOps(), conf);
}

void
CampaignStats::merge(const CampaignStats &o)
{
    for (size_t i = 0; i < perOp.size(); ++i)
        perOp[i].merge(o.perOp[i]);
    engineFaults += o.engineFaults;
    interrupted = interrupted || o.interrupted;
}

uint64_t
CampaignStats::totalOps() const
{
    uint64_t n = 0;
    for (const auto &s : perOp)
        n += s.total;
    return n;
}

uint64_t
CampaignStats::totalFaulty() const
{
    uint64_t n = 0;
    for (const auto &s : perOp)
        n += s.faulty;
    return n;
}

double
CampaignStats::errorRatio() const
{
    uint64_t t = totalOps();
    return t ? static_cast<double>(totalFaulty()) /
                   static_cast<double>(t)
             : 0.0;
}

std::vector<uint64_t>
CampaignStats::flipCountHistogram(unsigned maxBits) const
{
    std::vector<uint64_t> hist(maxBits + 1, 0);
    for (const auto &s : perOp) {
        for (uint64_t mask : s.maskPool) {
            auto n = static_cast<unsigned>(popcount(mask));
            hist[std::min(n, maxBits)] += 1;
        }
    }
    return hist;
}

DtaCampaign::DtaCampaign(fpu::FpuCore &core, size_t point,
                         uint64_t maskSeed)
    : core_(core), point_(point), maskSeed_(maskSeed)
{
}

void
DtaCampaign::record(FpuOp op, uint64_t errorMask)
{
    OpErrorStats &s = stats_.of(op);
    uint64_t seq = s.total;
    ++s.total;
    if (errorMask != 0) {
        ++s.faulty;
        s.addMask(errorMask,
                  maskPriority(maskSeed_, static_cast<unsigned>(op),
                               seq));
        uint64_t m = errorMask;
        while (m) {
            unsigned bit = static_cast<unsigned>(__builtin_ctzll(m));
            ++s.bitErrors[bit];
            m &= m - 1;
        }
    }
}

void
DtaCampaign::execute(FpuOp op, uint64_t a, uint64_t b)
{
    auto res = core_.execute(point_, op, a, b);
    record(op, res.errorMask);
}

void
DtaCampaign::executeBlock(const FpuOp *ops, const uint64_t *a,
                          const uint64_t *b, unsigned lanes)
{
    static obs::Counter mBatches = obs::Registry::global().counter(
        obs::metric::kDtaLaneBlocks, "",
        "multi-lane DTA blocks executed");
    static obs::Counter mFallback = obs::Registry::global().counter(
        obs::metric::kDtaLaneFallbackOps, "",
        "DTA ops run as single-lane blocks while lane batching was "
        "enabled");
    fpu::FpuCore::Exec execs[circuit::CompiledDta::kMaxLanes];
    core_.executeBatch(point_, ops, a, b, lanes, execs);
    if (lanes > 1)
        mBatches.inc(1);
    else if (dtaLanes() > 1)
        mFallback.inc(1);
    // Lanes are recorded in order, so the stats stream — totals,
    // per-bit counts, and reservoir key sequence — is exactly the one
    // `lanes` scalar execute() calls would produce.
    for (unsigned l = 0; l < lanes; ++l)
        record(ops[l], execs[l].errorMask);
}

namespace {

/** Lane-width override; 0 = the engine maximum. */
std::atomic<unsigned> gDtaLanes{0};

} // namespace

unsigned
dtaLanes()
{
    unsigned lanes = gDtaLanes.load(std::memory_order_relaxed);
    return lanes ? lanes : circuit::CompiledDta::kMaxLanes;
}

void
setDtaLanes(unsigned lanes)
{
    gDtaLanes.store(std::min(lanes, circuit::CompiledDta::kMaxLanes),
                    std::memory_order_relaxed);
}

void
randomOperands(FpuOp op, Rng &rng, uint64_t &a, uint64_t &b)
{
    auto rnd64 = [&]() {
        uint64_t sign = rng.next() & (1ULL << 63);
        uint64_t exp = 700 + rng.nextBounded(650);
        uint64_t man = rng.next() & ((1ULL << 52) - 1);
        return sign | (exp << 52) | man;
    };
    auto rnd32 = [&]() -> uint64_t {
        uint32_t sign = static_cast<uint32_t>(rng.next()) & 0x80000000u;
        uint32_t exp = 60 + static_cast<uint32_t>(rng.nextBounded(135));
        uint32_t man = static_cast<uint32_t>(rng.next()) & 0x7fffffu;
        return sign | (exp << 23) | man;
    };
    switch (op) {
      case FpuOp::I2FD:
        a = rng.next();
        b = 0;
        break;
      case FpuOp::I2FS:
        a = static_cast<uint32_t>(rng.next());
        b = 0;
        break;
      case FpuOp::F2ID: {
        // In-range magnitudes so conversions exercise the shifter.
        uint64_t sign = rng.next() & (1ULL << 63);
        uint64_t exp = 1000 + rng.nextBounded(80); // ~2^-23 .. 2^57
        uint64_t man = rng.next() & ((1ULL << 52) - 1);
        a = sign | (exp << 52) | man;
        b = 0;
        break;
      }
      case FpuOp::F2IS: {
        uint32_t sign = static_cast<uint32_t>(rng.next()) & 0x80000000u;
        uint32_t exp = 110 + static_cast<uint32_t>(rng.nextBounded(45));
        uint32_t man = static_cast<uint32_t>(rng.next()) & 0x7fffffu;
        a = sign | (exp << 23) | man;
        b = 0;
        break;
      }
      default:
        if (fpu::isDoubleOp(op)) {
            a = rnd64();
            b = rnd64();
        } else {
            a = rnd32();
            b = rnd32();
        }
        break;
    }
}

namespace {

/**
 * Run `shards` tasks across the pool, each on its worker's private
 * operating-point replica with pipeline history cleared at entry, and
 * merge the per-shard statistics in shard order. Everything a shard
 * computes depends only on its index, which is what keeps results
 * bit-identical across thread counts.
 *
 * Containment: an exception escaping a shard body is caught, the shard
 * is retried (clean history, attempt-salted randomness for bodies that
 * draw any) up to kDtaShardAttempts times, and then dropped with
 * engineFaults bumped — one bad shard degrades the statistics instead
 * of aborting the campaign. A watchdog stop abandons unfinished shards
 * and flags the merged result interrupted.
 *
 * shardKey, when given, maps a shard's list position to the seed of
 * its reservoir key stream; adaptive campaigns pass the shard's
 * absolute (op, chunk) key so pooled masks are independent of how the
 * rounds happened to be cut.
 */
CampaignStats
runSharded(fpu::FpuCore &core, size_t point, size_t shards,
           ThreadPool *pool, const Watchdog *watchdog,
           const std::function<void(size_t, unsigned, DtaCampaign &)> &body,
           const std::function<uint64_t(size_t)> &shardKey = {})
{
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    auto points = core.workerPoints(point, tp.numThreads());
    std::vector<CampaignStats> parts(shards);
    std::vector<uint8_t> done(shards, 0);

    // Observation only; never feeds back into shard geometry, RNG
    // substreams, or the ordered merge below.
    obs::Registry &reg = obs::Registry::global();
    obs::Counter mRetries = reg.counter(
        obs::metric::kDtaShardRetries, "",
        "extra attempts spent containing faulted DTA shards");
    obs::Histogram mShardMs = reg.histogram(
        obs::metric::kDtaShardMs, obs::latencyBucketsMs(), "",
        "wall time of one DTA shard (all attempts)");

    tp.parallelFor(0, shards, [&](uint64_t s, unsigned worker) {
        if (watchdog && watchdog->poll() != Watchdog::Stop::None)
            return;
        size_t pt = points[worker];
        obs::Span shardSpan("dta.shard", "dta",
                            static_cast<int64_t>(s));
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned attempt = 0; attempt < kDtaShardAttempts;
             ++attempt) {
            if (attempt > 0)
                mRetries.inc(1);
            try {
                core.reset(pt);
                // Shard index (or the caller's absolute key) seeds the
                // reservoir key stream — a pure function of the shard
                // geometry, not the worker.
                DtaCampaign campaign(core, pt,
                                     shardKey ? shardKey(s) : s);
                body(s, attempt, campaign);
                if (watchdog &&
                    watchdog->poll() != Watchdog::Stop::None)
                    return; // body bailed early; stats are partial
                parts[s] = campaign.takeStats();
                done[s] = 1;
                mShardMs.observe(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
                return;
            } catch (const std::exception &e) {
                warn("DTA shard %llu attempt %u faulted: %s",
                     static_cast<unsigned long long>(s), attempt + 1,
                     e.what());
            } catch (...) {
                warn("DTA shard %llu attempt %u faulted "
                     "(non-standard exception)",
                     static_cast<unsigned long long>(s), attempt + 1);
            }
        }
        done[s] = 2; // containment exhausted: drop the shard
    });
    CampaignStats merged;
    uint64_t mergedShards = 0;
    for (size_t s = 0; s < shards; ++s) {
        if (done[s] == 0) {
            merged.interrupted = true;
        } else if (done[s] == 2) {
            ++merged.engineFaults;
        } else {
            ++mergedShards;
            for (unsigned o = 0; o < fpu::kNumFpuOps; ++o)
                merged.perOp[o].merge(parts[s].perOp[o]);
        }
    }
    reg.counter(obs::metric::kDtaShards, "",
                "DTA shards merged into campaign statistics")
        .inc(mergedShards);
    reg.counter(obs::metric::kDtaShardsDropped, "",
                "DTA shards dropped after containment was exhausted")
        .inc(merged.engineFaults);
    reg.counter(obs::metric::kDtaOps, "",
                "gate-level operations characterized")
        .inc(merged.totalOps());
    return merged;
}

/** Poll cadence inside shard bodies (gate-level ops are slow). */
constexpr uint64_t kOpPollMask = 0x3F;

/**
 * Stream `count` random-operand ops of one type through a shard's
 * campaign in blocks of up to `lanes` (the last one partial). Shared
 * verbatim by the fixed and adaptive characterizations so a shard
 * produces identical statistics for the same substream in either
 * mode. Operands are always drawn one op at a time in stream order,
 * so the lane width never shifts the RNG sequence.
 */
void
runRandomShardOps(DtaCampaign &campaign, FpuOp op, uint64_t count,
                  Rng &shardRng, unsigned lanes,
                  const Watchdog *watchdog)
{
    FpuOp ops[circuit::CompiledDta::kMaxLanes];
    uint64_t a[circuit::CompiledDta::kMaxLanes];
    uint64_t b[circuit::CompiledDta::kMaxLanes];
    std::fill(ops, ops + lanes, op);
    for (uint64_t i = 0; i < count;) {
        if (watchdog && (lanes > 1 || (i & kOpPollMask) == 0) &&
            watchdog->poll() != Watchdog::Stop::None)
            return;
        auto n = static_cast<unsigned>(
            std::min<uint64_t>(lanes, count - i));
        for (unsigned l = 0; l < n; ++l)
            randomOperands(op, shardRng, a[l], b[l]);
        campaign.executeBlock(ops, a, b, n);
        i += n;
    }
}

/** One contiguous trace window (an independent replay shard). */
struct TraceWindow
{
    uint64_t begin;
    uint64_t count;
};

/**
 * Window placement of the WA-model replay. Depends only on
 * (trace size, maxOps): short traces replay fully in consecutive
 * windows; long ones sample kDtaShardOps-sized windows at an even
 * stride, clipped so at most maxOps ops run in total. Shared by the
 * fixed and adaptive trace campaigns, so an adaptive run consumes a
 * prefix of exactly the fixed-N window list.
 */
std::vector<TraceWindow>
traceWindows(uint64_t traceSize, uint64_t maxOps)
{
    const uint64_t kWindow = kDtaShardOps;
    std::vector<TraceWindow> windows;
    if (traceSize <= maxOps) {
        for (uint64_t begin = 0; begin < traceSize; begin += kWindow)
            windows.push_back(
                {begin,
                 std::min<uint64_t>(kWindow, traceSize - begin)});
    } else {
        uint64_t n = (maxOps + kWindow - 1) / kWindow;
        uint64_t stride = traceSize / n;
        uint64_t budget = maxOps;
        for (uint64_t w = 0; w < n && budget > 0; ++w) {
            uint64_t begin = w * stride;
            uint64_t len = std::min<uint64_t>(
                {kWindow, traceSize - begin, budget});
            windows.push_back({begin, len});
            budget -= len;
        }
    }
    return windows;
}

/**
 * Replay one trace window through a shard's campaign, demultiplexed
 * by FPU unit: each unit's entries keep their trace order and run in
 * blocks of up to `lanes` (a block may mix AddD/SubD, which share a
 * unit). This is exact because every unit keeps its own pipeline
 * history and an op touches only its own unit, so each unit sees the
 * same input sequence as in the sequential replay; and because each
 * op type belongs to one unit and statistics are kept per op type,
 * recording block by block feeds every op's totals, per-bit counts
 * and reservoir key sequence in trace order. Results are therefore
 * bit-identical at every lane width — and between the fixed and
 * adaptive campaigns, which share this body. Scratch is one index per
 * window entry.
 */
void
runTraceWindowOps(DtaCampaign &campaign,
                  const std::vector<sim::FpTraceEntry> &trace,
                  const TraceWindow &w, unsigned lanes,
                  const Watchdog *watchdog)
{
    const sim::FpTraceEntry *entries = trace.data() + w.begin;
    auto unitOf = [&](uint64_t i) {
        return static_cast<size_t>(fpu::unitFor(entries[i].op));
    };
    // Stable counting sort of the window positions by unit.
    std::array<uint64_t, fpu::kNumFpuUnits + 1> start{};
    for (uint64_t i = 0; i < w.count; ++i)
        ++start[unitOf(i) + 1];
    for (unsigned u = 0; u < fpu::kNumFpuUnits; ++u)
        start[u + 1] += start[u];
    std::vector<uint32_t> order(w.count);
    auto fill = start;
    for (uint64_t i = 0; i < w.count; ++i)
        order[fill[unitOf(i)]++] = static_cast<uint32_t>(i);

    FpuOp ops[circuit::CompiledDta::kMaxLanes];
    uint64_t a[circuit::CompiledDta::kMaxLanes];
    uint64_t b[circuit::CompiledDta::kMaxLanes];
    for (unsigned u = 0; u < fpu::kNumFpuUnits; ++u) {
        for (uint64_t k = start[u]; k < start[u + 1];) {
            if (watchdog && (lanes > 1 || (k & kOpPollMask) == 0) &&
                watchdog->poll() != Watchdog::Stop::None)
                return;
            auto n = static_cast<unsigned>(
                std::min<uint64_t>(lanes, start[u + 1] - k));
            for (unsigned l = 0; l < n; ++l) {
                const sim::FpTraceEntry &e = entries[order[k + l]];
                ops[l] = e.op;
                a[l] = e.a;
                b[l] = e.b;
            }
            campaign.executeBlock(ops, a, b, n);
            k += n;
        }
    }
}

} // namespace

CampaignStats
runRandomCampaign(fpu::FpuCore &core, size_t point, uint64_t countPerOp,
                  Rng &rng, ThreadPool *pool, const Watchdog *watchdog)
{
    // Fixed shard geometry: ceil(countPerOp / kDtaShardOps) shards per
    // op type, laid out op-major so shard index <-> (op, chunk) is a
    // pure function of countPerOp.
    uint64_t shardsPerOp =
        std::max<uint64_t>(1, (countPerOp + kDtaShardOps - 1) /
                                  kDtaShardOps);
    Rng base = rng.split();
    const unsigned lanes = dtaLanes();
    return runSharded(
        core, point, fpu::kNumFpuOps * shardsPerOp, pool, watchdog,
        [&, lanes](size_t s, unsigned attempt, DtaCampaign &campaign) {
            auto op = static_cast<FpuOp>(s / shardsPerOp);
            uint64_t chunk = s % shardsPerOp;
            uint64_t begin = chunk * kDtaShardOps;
            uint64_t end = std::min(begin + kDtaShardOps, countPerOp);
            // Attempt 0 uses the canonical substream; retries re-fork
            // deterministically off it.
            Rng shardRng = attempt == 0 ? base.fork(s)
                                        : base.fork(s).fork(attempt);
            runRandomShardOps(campaign, op, end - begin, shardRng,
                              lanes, watchdog);
        });
}

CampaignStats
runTraceCampaign(fpu::FpuCore &core, size_t point,
                 const std::vector<sim::FpTraceEntry> &trace,
                 uint64_t maxOps, ThreadPool *pool,
                 const Watchdog *watchdog)
{
    if (trace.empty())
        return CampaignStats{};
    auto windows = traceWindows(trace.size(), maxOps);
    const unsigned lanes = dtaLanes();
    return runSharded(
        core, point, windows.size(), pool, watchdog,
        [&, lanes](size_t s, unsigned, DtaCampaign &campaign) {
            runTraceWindowOps(campaign, trace, windows[s], lanes,
                              watchdog);
        });
}

namespace {

/**
 * Fold one adaptive round's merged shard statistics into the campaign
 * total and tell the planner what actually ran (merged counts, not
 * planned counts — dropped or interrupted shards must not count as
 * evidence). Returns true while the campaign may continue.
 */
bool
foldRound(CampaignStats &merged, CampaignStats &&round,
          stats::AdaptivePlanner &planner,
          const std::function<size_t(unsigned)> &stratumOf)
{
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const OpErrorStats &d = round.perOp[o];
        if (d.total == 0 && d.faulty == 0)
            continue;
        planner.record(stratumOf(o), d.faulty, d.total);
        merged.perOp[o].merge(d);
    }
    merged.engineFaults += round.engineFaults;
    if (round.interrupted)
        merged.interrupted = true;
    return !merged.interrupted;
}

/** Publish one adaptive campaign's planner telemetry. */
void
publishPlannerMetrics(const stats::AdaptivePlanner &planner,
                      uint64_t fixedEquivalent)
{
    obs::Registry &reg = obs::Registry::global();
    reg.counter(obs::metric::kStatsRounds, "",
                "adaptive sampling rounds planned")
        .inc(planner.rounds());
    reg.counter(obs::metric::kStatsEarlyStops, "",
                "strata stopped early by interval convergence")
        .inc(planner.earlyStops());
    reg.counter(obs::metric::kStatsAllocatedTrials, "",
                "trials allocated by adaptive planners")
        .inc(planner.totalAllocated());
    uint64_t recorded = planner.totalRecorded();
    reg.counter(obs::metric::kStatsTrialsSaved, "",
                "trials avoided versus the fixed-size campaign")
        .inc(fixedEquivalent > recorded ? fixedEquivalent - recorded
                                        : 0);
}

} // namespace

CampaignStats
runAdaptiveRandomCampaign(fpu::FpuCore &core, size_t point,
                          const stats::PlannerConfig &cfg, Rng &rng,
                          ThreadPool *pool, const Watchdog *watchdog)
{
    // Work is always cut into whole kDtaShardOps-sized shards so the
    // shard geometry — and with it every substream — stays a pure
    // function of the planner's recorded counts.
    stats::PlannerConfig shardCfg = cfg;
    shardCfg.unit = kDtaShardOps;
    if (shardCfg.initialRound < kDtaShardOps * fpu::kNumFpuOps)
        shardCfg.initialRound = kDtaShardOps * fpu::kNumFpuOps;
    stats::AdaptivePlanner planner(shardCfg, fpu::kNumFpuOps);

    Rng base = rng.split();
    const unsigned lanes = dtaLanes();
    CampaignStats merged;
    // Next absolute chunk index per op type. Substreams and reservoir
    // keys are derived from (op, chunk), never from a shard's position
    // in a round's work list, so how rounds happen to be cut has no
    // effect on the statistics.
    std::array<uint64_t, fpu::kNumFpuOps> chunksDone{};

    struct Shard
    {
        unsigned op;
        uint64_t chunk;
        uint64_t count;
    };
    while (!planner.done()) {
        auto alloc = planner.planRound();
        std::vector<Shard> work;
        for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
            uint64_t left = alloc[o];
            while (left > 0) {
                uint64_t n = std::min(left, kDtaShardOps);
                work.push_back({o, chunksDone[o]++, n});
                left -= n;
            }
        }
        if (work.empty())
            break;
        auto key = [&](size_t s) {
            return (static_cast<uint64_t>(work[s].op) << 32) |
                   work[s].chunk;
        };
        CampaignStats round = runSharded(
            core, point, work.size(), pool, watchdog,
            [&, lanes](size_t s, unsigned attempt,
                       DtaCampaign &campaign) {
                const Shard &sh = work[s];
                Rng shardRng = attempt == 0
                                   ? base.fork(key(s))
                                   : base.fork(key(s)).fork(attempt);
                runRandomShardOps(campaign,
                                  static_cast<FpuOp>(sh.op), sh.count,
                                  shardRng, lanes, watchdog);
            },
            key);
        uint64_t before = planner.totalRecorded();
        if (!foldRound(merged, std::move(round), planner,
                       [](unsigned o) { return size_t{o}; }))
            break;
        if (planner.totalRecorded() == before) {
            // Containment dropped the whole round: no new evidence, so
            // another identical round would stall forever. Stop with
            // whatever (degraded) statistics accumulated so far.
            warn("adaptive DTA round produced no statistics; stopping");
            break;
        }
    }
    publishPlannerMetrics(planner, shardCfg.maxPerStratum *
                                       fpu::kNumFpuOps);
    return merged;
}

CampaignStats
runAdaptiveTraceCampaign(fpu::FpuCore &core, size_t point,
                         const std::vector<sim::FpTraceEntry> &trace,
                         uint64_t maxOps,
                         const stats::PlannerConfig &cfg,
                         ThreadPool *pool, const Watchdog *watchdog)
{
    if (trace.empty())
        return CampaignStats{};
    auto windows = traceWindows(trace.size(), maxOps);
    uint64_t totalWindowOps = 0;
    for (const auto &w : windows)
        totalWindowOps += w.count;

    // One stratum: the workload's aggregate error ratio. The cap is
    // the fixed-N op budget — an unconverged adaptive run degenerates
    // to exactly the fixed campaign.
    stats::PlannerConfig shardCfg = cfg;
    shardCfg.unit = kDtaShardOps;
    shardCfg.maxPerStratum =
        std::min(shardCfg.maxPerStratum, totalWindowOps);
    if (shardCfg.initialRound < kDtaShardOps)
        shardCfg.initialRound = kDtaShardOps;
    stats::AdaptivePlanner planner(shardCfg, 1);

    const unsigned lanes = dtaLanes();
    CampaignStats merged;
    size_t nextWindow = 0;
    while (!planner.done() && nextWindow < windows.size()) {
        uint64_t budget = planner.planRound()[0];
        // Consume the next run of fixed-N windows covering the budget.
        // Window indices are absolute, so every consumed window gets
        // its fixed-N reservoir key stream: a converged adaptive run
        // is a bit-exact subset of the fixed characterization.
        size_t first = nextWindow;
        uint64_t planned = 0;
        while (nextWindow < windows.size() && planned < budget)
            planned += windows[nextWindow++].count;
        CampaignStats round = runSharded(
            core, point, nextWindow - first, pool, watchdog,
            [&, lanes](size_t s, unsigned, DtaCampaign &campaign) {
                runTraceWindowOps(campaign, trace, windows[first + s],
                                  lanes, watchdog);
            },
            [&](size_t s) { return first + s; });
        if (!foldRound(merged, std::move(round), planner,
                       [](unsigned) { return size_t{0}; }))
            break;
    }
    publishPlannerMetrics(planner, totalWindowOps);
    return merged;
}

} // namespace tea::timing
