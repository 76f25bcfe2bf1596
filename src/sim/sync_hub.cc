#include "sim/sync_hub.hh"

#include <algorithm>

namespace tea::sim {

SyncHub::SyncHub(unsigned harts)
    : running_(harts, 0), phase_(harts, 0), arrived_(harts, 0)
{
    running_[0] = 1;
}

int
SyncHub::spawn(uint64_t target, size_t codeSize)
{
    if (target < isa::kCodeBase || (target & 3) ||
        (target - isa::kCodeBase) / 4 >= codeSize)
        return -1;
    for (unsigned k = 1; k < running_.size(); ++k) {
        if (!running_[k]) {
            running_[k] = 1;
            ++numRunning_;
            return static_cast<int>(k);
        }
    }
    return -1;
}

void
SyncHub::park(unsigned hart)
{
    running_[hart] = 0;
    --numRunning_;
}

SyncHub::Barrier
SyncHub::barrier(unsigned hart)
{
    if (phase_[hart] < globalPhase_) {
        // Released while this hart was stalled.
        ++phase_[hart];
        return Barrier::Pass;
    }
    if (!arrived_[hart]) {
        arrived_[hart] = 1;
        ++numArrived_;
    }
    if (numArrived_ >= numRunning_) {
        ++globalPhase_;
        numArrived_ = 0;
        std::fill(arrived_.begin(), arrived_.end(), 0);
        ++phase_[hart];
        return Barrier::Release;
    }
    return Barrier::Stall;
}

} // namespace tea::sim
