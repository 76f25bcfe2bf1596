/**
 * @file
 * Reusable out-of-order core pipeline, factored out of OooSim.
 *
 * `CorePipeline` is the cycle-level machine — fetch, bimodal branch
 * prediction, rename onto a ROB, issue queue, latency-modelled
 * functional units, a load/store queue with store-to-load forwarding,
 * injection at writeback, and in-order commit. Everything outside the
 * core proper goes through a `CorePort`: data-memory timing and values,
 * mapping checks, and commit-time system calls. A flat port over one
 * `Memory` plus a private L1 reproduces the original single-core
 * `OooSim` bit-for-bit; the multi-core subsystem (`src/mc`) supplies a
 * port that routes the same requests through private-L1 MESI state, a
 * shared L2, and the spawn/join/barrier hub.
 *
 * The pipeline also carries an origin-core taint bit per value
 * (registers, ROB entries, and — via the port — memory words) so the
 * campaign layer can tell whether a corrupted value ever crossed cores
 * before reaching architectural state. Single-core ports return taint 0
 * for every load, so the machinery is inert there.
 */

#ifndef TEA_SIM_PIPELINE_HH
#define TEA_SIM_PIPELINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "fpu/fpu_types.hh"
#include "isa/program.hh"
#include "sim/ooo_sim.hh"
#include "sim/sim_types.hh"

namespace tea::sim {

/**
 * Everything a core pipeline asks of the outside world. One port
 * instance per core; implementations are not required to be
 * thread-safe (a whole multi-core simulation steps on one thread).
 */
class CorePort
{
  public:
    virtual ~CorePort();

    struct LoadResult
    {
        uint64_t value;
        unsigned latency; ///< cycles until the value is usable
        uint32_t taint;   ///< origin-core bitmask of the loaded word
    };

    /** Perform a (committed-path) data load: value + timing + taint. */
    virtual LoadResult load(uint64_t addr, unsigned size) = 0;

    /** Smallest and largest `LoadResult::latency` `load` can return. */
    struct LatencyRange
    {
        unsigned min, max;
    };
    virtual LatencyRange loadLatencies() const = 0;

    /** Commit a store: write memory, update cache/coherence state. */
    virtual void store(uint64_t addr, unsigned size, uint64_t value,
                       uint32_t taint) = 0;

    /** Mapping check for a prospective access (loads and stores). */
    virtual bool mapped(uint64_t addr, unsigned size,
                        bool isStore) const = 0;

    enum class Sys : uint8_t
    {
        Proceed, ///< side effects done; retire the ECALL
        Stall,   ///< not ready (join/barrier); retry next cycle
        Fault,   ///< raise `trap` and crash at commit
    };

    /**
     * Commit-time system call. `func` is the ECALL immediate, `arg`
     * the captured rs1 value. Called non-speculatively at ROB head;
     * a Stall answer leaves the ECALL at the head to retry.
     */
    virtual Sys syscall(int func, uint64_t arg, TrapKind &trap) = 0;
};

/** Simple 2-bit bimodal predictor plus a last-target table for JALR. */
struct Predictor
{
    static constexpr size_t kBimodal = 4096;
    static constexpr size_t kTargets = 1024;
    std::vector<uint8_t> counters = std::vector<uint8_t>(kBimodal, 1);
    std::vector<uint64_t> lastTarget =
        std::vector<uint64_t>(kTargets, ~0ULL);

    bool predictTaken(uint64_t pcIdx) const
    {
        return counters[pcIdx % kBimodal] >= 2;
    }
    void update(uint64_t pcIdx, bool taken)
    {
        uint8_t &c = counters[pcIdx % kBimodal];
        if (taken && c < 3)
            ++c;
        if (!taken && c > 0)
            --c;
    }
    uint64_t predictTarget(uint64_t pcIdx) const
    {
        return lastTarget[pcIdx % kTargets];
    }
    void updateTarget(uint64_t pcIdx, uint64_t target)
    {
        lastTarget[pcIdx % kTargets] = target;
    }
};

/** L1 data cache tag model (set-associative, LRU). */
struct L1Cache
{
    unsigned sets, ways, lineBits;
    std::vector<uint64_t> tags;
    std::vector<uint32_t> lru;
    uint32_t tick = 0;
    uint64_t misses = 0, accesses = 0;

    L1Cache(unsigned sets_, unsigned ways_, unsigned lineBytes)
        : sets(sets_), ways(ways_),
          lineBits(static_cast<unsigned>(__builtin_ctz(lineBytes))),
          tags(sets_ * ways_, ~0ULL), lru(sets_ * ways_, 0)
    {
    }

    bool access(uint64_t addr, bool allocate)
    {
        ++accesses;
        uint64_t line = addr >> lineBits;
        unsigned set = line % sets;
        ++tick;
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[set * ways + w] == line) {
                lru[set * ways + w] = tick;
                return true;
            }
        }
        ++misses;
        if (allocate) {
            unsigned victim = 0;
            uint32_t best = UINT32_MAX;
            for (unsigned w = 0; w < ways; ++w) {
                if (lru[set * ways + w] < best) {
                    best = lru[set * ways + w];
                    victim = w;
                }
            }
            tags[set * ways + victim] = line;
            lru[set * ways + victim] = tick;
        }
        return false;
    }

    /** Coherence invalidation: drop the line if present. */
    void invalidate(uint64_t addr)
    {
        uint64_t line = addr >> lineBits;
        unsigned set = line % sets;
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[set * ways + w] == line) {
                tags[set * ways + w] = ~0ULL;
                lru[set * ways + w] = 0;
            }
        }
    }

    bool present(uint64_t addr) const
    {
        uint64_t line = addr >> lineBits;
        unsigned set = line % sets;
        for (unsigned w = 0; w < ways; ++w)
            if (tags[set * ways + w] == line)
                return true;
        return false;
    }
};

/**
 * One out-of-order core. Stepped one cycle at a time by its owner
 * (OooSim's run loop, or the multi-core round-robin scheduler).
 *
 * Per-cycle work follows events, not occupancy: an instruction enters
 * a ready set when its last producer writes back (wakeup) and issue
 * selects from that set oldest-first; a load waiting on an older store
 * re-checks the store queue only after some store changed it; and a
 * timing wheel of per-cycle ROB bitsets names the slots that finish
 * this cycle, so writeback visits nothing else.
 */
class CorePipeline
{
  public:
    /**
     * fatal() when a latency of `cfg` or of `port`'s loads is 0 (a
     * result would be due in the cycle that scheduled it) or exceeds
     * `kMaxLatency`.
     */
    CorePipeline(const isa::Program &prog, const OooConfig &cfg,
                 InjectionPlan plan, CorePort &port, unsigned coreId = 0);

    /** Largest latency a timing wheel is sized for. */
    static constexpr unsigned kMaxLatency = 4096;

    enum class Step : uint8_t
    {
        Running,
        Halted,  ///< HALT reached commit
        Crashed, ///< a trap reached commit (see `trap` out-param)
    };

    /** Advance one cycle: commit, writeback, issue, rename, fetch. */
    Step step(TrapKind &trap);

    /**
     * Re-arm a parked (halted) core at a new entry point with a fresh
     * stack pointer — the spawn path. Predictor, cache state, stats,
     * and injection counters persist across restarts (they model
     * persistent hardware structures and whole-run injection indices).
     */
    void restart(uint64_t entryIdx, uint64_t sp);

    unsigned coreId() const { return coreId_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t committed() const { return committed_; }
    uint64_t executed() const { return executed_; }
    uint64_t injectionsApplied() const { return injApplied_; }
    uint64_t injectionsOnWrongPath() const { return injWrongPath_; }
    uint64_t branchMispredicts() const { return mispredicts_; }
    uint64_t squashedInstructions() const { return squashed_; }
    /** Committed loads whose memory word carried a foreign taint. */
    uint64_t crossTaintedLoads() const { return crossLoads_; }

  private:
    enum class Stage : uint8_t
    {
        InIQ,       ///< waiting for operands / FU
        Exec,       ///< in a functional unit, due at `due`
        MemPending, ///< load waiting for disambiguation
        MemAccess,  ///< load accessing the cache, due at `due`
        Done,
    };

    struct RobEntry
    {
        isa::Instruction insn;
        uint64_t pcIdx;
        uint64_t seq; ///< program-order number; kSquashed once killed
        uint64_t predNextIdx;
        Stage stage;
        /** Producers of the sources that have not written back yet. */
        unsigned pending;
        // Sources: [0] = rs1-class, [1] = rs2 / store data. Filled at
        // rename, or by the producer's wakeup when it writes back.
        uint64_t srcVal[2];
        uint32_t srcTaint[2];
        // Destination.
        bool hasDest;
        bool destIsFp;
        uint8_t destReg;
        uint64_t result;
        uint32_t taint;    ///< origin-core bitmask of `result`
        uint32_t memTaint; ///< taint of the loaded memory word
        // Memory.
        bool isLoad, isStore;
        uint64_t addr;
        unsigned size;
        // Control.
        bool isCtrl;
        uint64_t actualNextIdx;
        bool resolved;
        // Timing, faults & bookkeeping.
        uint64_t due; ///< writeback cycle in Exec / MemAccess
        TrapKind trap;
        bool injected;
    };

    /** A consumer source waiting for a producer slot's result. */
    struct Waiter
    {
        uint32_t slot;
        uint32_t src;
        uint64_t seq; ///< the consumer's, to skip reused slots
    };

    static constexpr uint64_t kSquashed = ~0ULL;

    enum class CommitOutcome { Continue, Halt, Crash };
    enum class MemCheck { Ready, Forward, Wait };

    size_t robNext(size_t i) const { return (i + 1) % rob_.size(); }
    uint64_t readIntNow(unsigned r) const
    {
        return r == 0 ? 0 : xreg_[r];
    }
    static void setBit(uint64_t *set, size_t i)
    {
        set[i >> 6] |= 1ULL << (i & 63);
    }
    static void clearBit(uint64_t *set, size_t i)
    {
        set[i >> 6] &= ~(1ULL << (i & 63));
    }
    /** The wheel's bitset of the slots due at `cycle`. */
    uint64_t *dueAt(uint64_t cycle)
    {
        return &wheel_[(cycle & wheelMask_) * robWords_];
    }
    void schedule(size_t slot, unsigned latency);
    void unschedule(size_t slot) { clearBit(dueAt(rob_[slot].due), slot); }
    /**
     * A store executed or committed: the queue the waiting loads were
     * checked against changed, so each re-checks. A store renamed or
     * squashed starts none: it is younger than every waiting load that
     * survives, and `checkLoad` skips younger stores.
     */
    void newStoreEpoch()
    {
        std::copy(memPending_.begin(), memPending_.end(),
                  memRecheck_.begin());
    }
    void captureSource(size_t slot, int src, unsigned reg, bool isFp);
    void fetch();
    void rename();
    unsigned latencyOf(isa::Op op) const;
    void checkMemFault(RobEntry &e);
    bool issueOne(size_t slot);
    void issue();
    void applyInjection(RobEntry &e);
    void squashAfter(size_t slot, uint64_t redirectIdx, bool stopFetch);
    void finishExec(size_t slot);
    MemCheck checkLoad(size_t slot, uint64_t &forwardValue,
                       uint32_t &forwardTaint);
    void progress(size_t slot);
    void writeback();
    CommitOutcome commit(TrapKind &trapOut);

    const isa::Program &prog_;
    OooConfig cfg_;
    InjectionPlan plan_;
    CorePort &port_;
    unsigned coreId_;
    uint32_t coreMask_;
    unsigned maxLoadLatency_;

    // ROB.
    std::vector<RobEntry> rob_;
    size_t head_ = 0, tail_ = 0, count_ = 0;
    uint64_t nextSeq_ = 0;
    /** 64-bit words of one bitset over ROB slots. */
    size_t robWords_;
    /** Per producer slot: the sources waiting for its result. */
    std::vector<std::vector<Waiter>> waiters_;
    /** Bitset over ROB slots in InIQ whose sources are all known. */
    std::vector<uint64_t> ready_;
    /** InIQ entries (the `iqSize` limit). */
    unsigned iqCount_ = 0;
    /** ROB slots of the in-flight stores, in program order. */
    std::deque<size_t> sq_;
    /** Bitset over ROB slots in MemPending. */
    std::vector<uint64_t> memPending_;
    /**
     * The MemPending loads to disambiguate this cycle: those not yet
     * checked, and all of them after a new store epoch. A load whose
     * check says Wait leaves it until the next epoch.
     */
    std::vector<uint64_t> memRecheck_;
    /**
     * Timing wheel: `wheelMask_ + 1` bitsets over ROB slots, one per
     * cycle modulo the wheel size, each naming the Exec / MemAccess
     * slots due in that cycle. Every latency is below the wheel size.
     */
    std::vector<uint64_t> wheel_;
    uint64_t wheelMask_;

    // Rename tables: ROB slot of the latest producer, or -1.
    std::array<int, 32> mapInt_;
    std::array<int, 32> mapFp_;
    std::array<uint64_t, 32> xreg_{};
    std::array<uint64_t, 32> freg_{};
    std::array<uint32_t, 32> xregTaint_{};
    std::array<uint32_t, 32> fregTaint_{};

    std::deque<std::pair<uint64_t, uint64_t>> fetchBuf_; // (pcIdx, pred)

    uint64_t fetchIdx_;
    bool fetchStopped_ = false;

    Predictor pred_;

    unsigned loadsInFlight_ = 0;
    uint64_t intDivBusyUntil_ = 0, fpDivBusyUntil_ = 0;

    // Injection counters.
    uint64_t anyDestCount_ = 0;
    size_t anyDestPtr_ = 0;
    std::array<uint64_t, fpu::kNumFpuOps> fpOpCount_{};
    std::array<size_t, fpu::kNumFpuOps> fpOpPtr_{};

    // Stats.
    uint64_t cycles_ = 0, committed_ = 0, executed_ = 0;
    uint64_t injApplied_ = 0, injWrongPath_ = 0;
    uint64_t mispredicts_ = 0, squashed_ = 0;
    uint64_t crossLoads_ = 0;
};

} // namespace tea::sim

#endif // TEA_SIM_PIPELINE_HH
