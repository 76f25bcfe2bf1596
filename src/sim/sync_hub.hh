/**
 * @file
 * The multi-core program ABI, written once for the functional and the
 * cycle-level simulators.
 *
 * A program running on N harts (hardware threads, one per simulated
 * core) reads "who am I / how many of us are there" from a read-only
 * control page, and synchronizes through three ECALLs: spawn (start
 * the lowest parked hart at a code address), join (wait until every
 * worker hart has halted) and barrier (wait until every running hart
 * arrives). `SyncHub` keeps the bookkeeping those need: which harts
 * run, the barrier phase and the arrival count. Callers own the rest:
 * `FuncSim` points a spawned hart's PC and stack pointer itself,
 * `mc::McSim` restarts a pipeline and counts episodes in its
 * coherence statistics.
 */

#ifndef TEA_SIM_SYNC_HUB_HH
#define TEA_SIM_SYNC_HUB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace tea::sim {

/** True when [addr, addr+size) lies inside the control page. */
inline bool
inCtrlPage(uint64_t addr, unsigned size)
{
    // One unsigned compare: addresses below the page wrap to huge.
    return addr - isa::kMcCtrlBase <= isa::kMcCtrlSize - size;
}

/** The control-page word at `addr` as hart `hart` of `harts` reads it. */
inline uint64_t
ctrlPageRead(uint64_t addr, unsigned hart, unsigned harts)
{
    return addr == isa::kMcCtrlCoreId     ? hart
           : addr == isa::kMcCtrlNumCores ? harts
                                          : 0;
}

/** Initial stack pointer of hart `hart` (hart 0 is the main core). */
inline uint64_t
hartStackTop(unsigned hart)
{
    return isa::kStackTop - 64 -
           static_cast<uint64_t>(hart) * isa::kMcStackBytes;
}

class SyncHub
{
  public:
    /** Hart 0 runs; every worker hart is parked until spawned. */
    explicit SyncHub(unsigned harts);

    bool running(unsigned hart) const { return running_[hart] != 0; }
    unsigned numRunning() const { return numRunning_; }

    /**
     * Spawn onto the lowest parked worker hart at code byte address
     * `target` of a `codeSize`-instruction program. Returns that hart,
     * now running, or -1 — a SyncFault — when `target` is not an
     * instruction or no worker hart is parked.
     */
    int spawn(uint64_t target, size_t codeSize);

    /** A worker hart halted: park it until the next spawn. */
    void park(unsigned hart);

    /** True when join may proceed: every worker hart is parked. */
    bool joinReady() const { return numRunning_ == 1; }

    enum class Barrier
    {
        Stall,   ///< wait: not every running hart has arrived
        Pass,    ///< released by an episode while this hart waited
        Release, ///< the last arrival: this call ends the episode
    };
    Barrier barrier(unsigned hart);

  private:
    std::vector<uint8_t> running_;
    unsigned numRunning_ = 1;
    // Barrier: per-hart passed phase vs. the globally released phase.
    std::vector<uint64_t> phase_;
    std::vector<uint8_t> arrived_;
    uint64_t globalPhase_ = 0;
    unsigned numArrived_ = 0;
};

} // namespace tea::sim

#endif // TEA_SIM_SYNC_HUB_HH
