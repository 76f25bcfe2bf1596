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
 */
class CorePipeline
{
  public:
    CorePipeline(const isa::Program &prog, const OooConfig &cfg,
                 InjectionPlan plan, CorePort &port, unsigned coreId = 0);

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
        Exec,       ///< in a functional unit (countdown)
        MemPending, ///< load waiting for disambiguation
        MemAccess,  ///< load accessing the cache (countdown)
        Done,
    };

    struct RobEntry
    {
        isa::Instruction insn;
        uint64_t pcIdx;
        uint64_t seq;
        uint64_t predNextIdx;
        Stage stage;
        unsigned countdown;
        // Sources: [0] = rs1-class, [1] = rs2 / store data.
        int src[2];          ///< ROB slot of the producer, or -1
        uint64_t srcVal[2];  ///< value when src == -1 (or after patch)
        uint32_t srcTaint[2];
        bool srcIsFp[2];
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
        // Faults & bookkeeping.
        TrapKind trap;
        bool injected;
    };

    enum class CommitOutcome { Continue, Halt, Crash };
    enum class MemCheck { Ready, Forward, Wait };

    size_t robNext(size_t i) const { return (i + 1) % rob_.size(); }
    uint64_t readIntNow(unsigned r) const
    {
        return r == 0 ? 0 : xreg_[r];
    }
    void captureSource(RobEntry &e, int slot, unsigned reg, bool isFp);
    void fetch();
    void rename();
    bool sourcesReady(const RobEntry &e) const;
    uint64_t sourceValue(const RobEntry &e, int s) const;
    uint32_t sourceTaint(const RobEntry &e, int s) const;
    unsigned latencyOf(isa::Op op) const;
    void checkMemFault(RobEntry &e);
    void issue();
    void applyInjection(RobEntry &e);
    void squashAfter(size_t slot, uint64_t redirectIdx, bool stopFetch);
    void finishExec(size_t slot);
    MemCheck checkLoad(size_t slot, uint64_t &forwardValue,
                       uint32_t &forwardTaint);
    void setBusy(size_t slot) { busy_[slot >> 6] |= 1ULL << (slot & 63); }
    void clearBusy(size_t slot)
    {
        busy_[slot >> 6] &= ~(1ULL << (slot & 63));
    }
    size_t nextBusy(size_t from, size_t end) const;
    void progress(size_t slot);
    void writeback();
    void patchWaiters(size_t slot, uint64_t value, uint32_t taint);
    CommitOutcome commit(TrapKind &trapOut);

    const isa::Program &prog_;
    OooConfig cfg_;
    InjectionPlan plan_;
    CorePort &port_;
    unsigned coreId_;
    uint32_t coreMask_;

    // ROB.
    std::vector<RobEntry> rob_;
    size_t head_ = 0, tail_ = 0, count_ = 0;
    uint64_t nextSeq_ = 0;
    /** ROB slots of the in-flight stores, in program order. */
    std::deque<size_t> sq_;
    /** Bitset over ROB slots in Exec, MemPending or MemAccess. */
    std::vector<uint64_t> busy_;

    // Rename tables: ROB slot of the latest producer, or -1.
    std::array<int, 32> mapInt_;
    std::array<int, 32> mapFp_;
    std::array<uint64_t, 32> xreg_{};
    std::array<uint64_t, 32> freg_{};
    std::array<uint32_t, 32> xregTaint_{};
    std::array<uint32_t, 32> fregTaint_{};

    std::vector<int> iq_; // ROB slots, program order
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
