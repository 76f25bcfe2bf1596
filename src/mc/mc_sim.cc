#include "mc/mc_sim.hh"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/sync_hub.hh"
#include "util/logging.hh"

namespace tea::mc {

using sim::CorePipeline;
using sim::CorePort;
using sim::L1Cache;
using sim::TrapKind;

namespace {

/**
 * MESI-style directory: per-line sharer vector plus a single
 * modified-owner. Lines live in a hash map keyed by line address;
 * lookups only — iteration order never matters, so determinism holds.
 */
struct CoherenceDir
{
    struct Line
    {
        uint32_t sharers = 0;
        int owner = -1;
        bool modified = false;
    };

    unsigned lineBits;
    std::unordered_map<uint64_t, Line> lines;

    explicit CoherenceDir(unsigned lineBytes)
        : lineBits(static_cast<unsigned>(__builtin_ctz(lineBytes)))
    {
    }

    Line &line(uint64_t addr) { return lines[addr >> lineBits]; }
};

/** Word-granular (8-byte) origin-core taint over shared memory. */
struct TaintMap
{
    std::unordered_map<uint64_t, uint32_t> words;

    uint32_t get(uint64_t addr) const
    {
        auto it = words.find(addr >> 3);
        return it == words.end() ? 0 : it->second;
    }
    /** Returns true when a clean store overwrote a tainted word. */
    bool set(uint64_t addr, uint32_t taint)
    {
        uint64_t key = addr >> 3;
        if (taint == 0) {
            auto it = words.find(key);
            if (it == words.end())
                return false;
            words.erase(it);
            return true;
        }
        words[key] = taint;
        return false;
    }
};

} // namespace

struct McSim::Impl
{
    const isa::Program &prog;
    McConfig cfg;
    sim::Memory mem;
    sim::Console console;

    // Per-core machinery (ports must outlive the pipelines).
    struct McPort;
    std::vector<std::unique_ptr<McPort>> ports;
    std::vector<std::unique_ptr<CorePipeline>> pipes;
    std::vector<L1Cache> l1s;
    L1Cache l2;
    CoherenceDir dir;
    TaintMap taint;
    CoherenceStats coh;

    /** Which cores step (core 0 until HALT) and the barrier state. */
    sim::SyncHub sync;

    /** Port for one core: ctrl page, coherent loads/stores, syscalls. */
    struct McPort final : CorePort
    {
        Impl &m;
        unsigned core;

        McPort(Impl &impl, unsigned coreId) : m(impl), core(coreId) {}

        LoadResult load(uint64_t addr, unsigned size) override
        {
            if (sim::inCtrlPage(addr, size))
                return {sim::ctrlPageRead(addr, core, m.cfg.cores),
                        m.cfg.core.latCacheHit, 0};
            unsigned lat = m.loadLatency(core, addr);
            return {m.mem.read(addr, size), lat, m.taint.get(addr)};
        }

        LatencyRange loadLatencies() const override
        {
            auto lats = {m.cfg.core.latCacheHit, m.cfg.core.latCacheMiss,
                         m.cfg.latL2Hit, m.cfg.latC2c};
            return {std::min(lats), std::max(lats)};
        }

        void store(uint64_t addr, unsigned size, uint64_t value,
                   uint32_t taint) override
        {
            m.storeAccess(core, addr);
            m.mem.write(addr, size, value);
            if (m.taint.set(addr, taint))
                ++m.coh.overwriteMasks;
        }

        bool mapped(uint64_t addr, unsigned size,
                    bool isStore) const override
        {
            if (sim::inCtrlPage(addr, size))
                return !isStore; // control page is read-only
            return m.mem.isMapped(addr, size);
        }

        Sys syscall(int func, uint64_t arg, TrapKind &trap) override
        {
            return m.syscall(core, func, arg, trap);
        }
    };

    Impl(const isa::Program &p, const McConfig &c,
         std::vector<sim::InjectionPlan> plans)
        : prog(p), cfg(c),
          l2(c.l2Sets, c.l2Ways, c.core.l1LineBytes),
          dir(c.core.l1LineBytes), sync(c.cores)
    {
        mem.loadProgram(prog);
        plans.resize(cfg.cores);
        l1s.reserve(cfg.cores);
        ports.reserve(cfg.cores);
        pipes.reserve(cfg.cores);
        for (unsigned k = 0; k < cfg.cores; ++k) {
            l1s.emplace_back(cfg.core.l1Sets, cfg.core.l1Ways,
                             cfg.core.l1LineBytes);
            ports.push_back(std::make_unique<McPort>(*this, k));
            pipes.push_back(std::make_unique<CorePipeline>(
                prog, cfg.core, std::move(plans[k]), *ports[k], k));
        }
    }

    // ---- coherence timing --------------------------------------------
    unsigned loadLatency(unsigned core, uint64_t addr)
    {
        bool l1Hit = l1s[core].access(addr, true);
        auto &ln = dir.line(addr);
        if (l1Hit && (ln.sharers >> core) & 1)
            return cfg.core.latCacheHit;
        unsigned lat;
        if (ln.modified && ln.owner != static_cast<int>(core)) {
            // Dirty in another L1: cache-to-cache fill + downgrade.
            ++coh.c2cTransfers;
            ln.modified = false;
            lat = cfg.latC2c;
        } else {
            ++coh.l2Accesses;
            lat = l2.access(addr, true) ? cfg.latL2Hit
                                        : cfg.core.latCacheMiss;
            if (lat == cfg.core.latCacheMiss)
                ++coh.l2Misses;
        }
        ln.sharers |= 1u << core;
        return lat;
    }

    void storeAccess(unsigned core, uint64_t addr)
    {
        auto &ln = dir.line(addr);
        uint32_t others = ln.sharers & ~(1u << core);
        if (others) {
            coh.invalidations +=
                static_cast<unsigned>(std::popcount(others));
            for (unsigned k = 0; k < cfg.cores; ++k)
                if ((others >> k) & 1)
                    l1s[k].invalidate(addr);
        }
        if (!(ln.modified && ln.owner == static_cast<int>(core)))
            ++coh.upgrades;
        ln.sharers = 1u << core;
        ln.owner = static_cast<int>(core);
        ln.modified = true;
        l1s[core].access(addr, true);
        l2.access(addr, true);
    }

    // ---- spawn / join / barrier hub ----------------------------------
    CorePort::Sys syscall(unsigned core, int func, uint64_t arg,
                          TrapKind &trap)
    {
        using isa::Syscall;
        switch (static_cast<Syscall>(func)) {
          case Syscall::PrintInt:
          case Syscall::PrintFp:
            console.push_back(arg);
            return CorePort::Sys::Proceed;
          case Syscall::Spawn: {
            ++coh.spawns;
            // A bad target, or nothing left to spawn onto (a corrupted
            // spawn loop): a real runtime would abort here too.
            int target = sync.spawn(arg, prog.code.size());
            if (target < 0) {
                trap = TrapKind::SyncFault;
                return CorePort::Sys::Fault;
            }
            pipes[target]->restart(
                (arg - isa::kCodeBase) / 4,
                sim::hartStackTop(static_cast<unsigned>(target)));
            return CorePort::Sys::Proceed;
          }
          case Syscall::Join:
            if (!sync.joinReady())
                return CorePort::Sys::Stall;
            ++coh.joins;
            return CorePort::Sys::Proceed;
          case Syscall::Barrier: {
            auto step = sync.barrier(core);
            if (step == sim::SyncHub::Barrier::Stall)
                return CorePort::Sys::Stall;
            if (step == sim::SyncHub::Barrier::Release)
                ++coh.barriers;
            return CorePort::Sys::Proceed;
          }
          default:
            return CorePort::Sys::Proceed;
        }
    }
};

McSim::McSim(isa::Program prog, McConfig cfg,
             std::vector<sim::InjectionPlan> plans)
    : prog_(std::move(prog))
{
    cfg.cores = std::clamp(cfg.cores, 1u, isa::kMcMaxCores);
    cfg.quantum = std::max(cfg.quantum, 1u);
    panic_if(plans.size() > cfg.cores,
             "more injection plans (%zu) than cores (%u)", plans.size(),
             cfg.cores);
    impl_ = std::make_unique<Impl>(prog_, cfg, std::move(plans));
}

McSim::~McSim() = default;

const sim::Memory &
McSim::memory() const
{
    return impl_->mem;
}

const sim::Console &
McSim::console() const
{
    return impl_->console;
}

unsigned
McSim::cores() const
{
    return impl_->cfg.cores;
}

McSim::Result
McSim::run(uint64_t maxCycles, const Watchdog *watchdog)
{
    Impl &m = *impl_;
    Result res{};
    res.status = Status::CycleLimit;

    constexpr uint64_t kPollMask = 0xFFF;
    uint64_t steps = 0;
    uint64_t lastCommitStep = 0;
    bool done = false;

    while (!done) {
        for (unsigned k = 0; k < m.cfg.cores && !done; ++k) {
            if (!m.sync.running(k))
                continue;
            for (unsigned q = 0; q < m.cfg.quantum; ++q) {
                if (watchdog && (steps & kPollMask) == 0) {
                    Watchdog::Stop stop = watchdog->poll();
                    if (stop != Watchdog::Stop::None) {
                        res.status = Status::Interrupted;
                        res.stop = stop;
                        done = true;
                        break;
                    }
                }
                if (steps >= maxCycles) {
                    res.status = Status::CycleLimit;
                    done = true;
                    break;
                }
                if (steps - lastCommitStep > m.cfg.deadlockWindow) {
                    res.status = Status::Deadlock;
                    done = true;
                    break;
                }
                uint64_t before = m.pipes[k]->committed();
                TrapKind trap = TrapKind::None;
                auto st = m.pipes[k]->step(trap);
                ++steps;
                if (m.pipes[k]->committed() != before)
                    lastCommitStep = steps;
                if (st == CorePipeline::Step::Halted) {
                    if (k == 0) {
                        res.status = Status::Halted;
                        done = true;
                    } else {
                        m.sync.park(k); // until the next spawn
                    }
                    break;
                }
                if (st == CorePipeline::Step::Crashed) {
                    res.status = Status::Crashed;
                    res.trap = trap;
                    res.trapCore = static_cast<int>(k);
                    done = true;
                    break;
                }
            }
        }
    }

    res.cycles = steps;
    res.perCoreCommitted.resize(m.cfg.cores);
    res.perCoreInjected.resize(m.cfg.cores);
    for (unsigned k = 0; k < m.cfg.cores; ++k) {
        const CorePipeline &p = *m.pipes[k];
        res.committed += p.committed();
        res.executed += p.executed();
        res.injectionsApplied += p.injectionsApplied();
        res.injectionsOnWrongPath += p.injectionsOnWrongPath();
        res.branchMispredicts += p.branchMispredicts();
        res.squashedInstructions += p.squashedInstructions();
        res.crossTaintedLoads += p.crossTaintedLoads();
        res.l1Misses += m.l1s[k].misses;
        res.l1Accesses += m.l1s[k].accesses;
        res.perCoreCommitted[k] = p.committed();
        res.perCoreInjected[k] = p.injectionsApplied();
    }
    res.coh = m.coh;
    return res;
}

} // namespace tea::mc
