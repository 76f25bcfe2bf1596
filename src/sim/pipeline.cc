#include "sim/pipeline.hh"

#include <algorithm>
#include <bit>

#include "isa/isa.hh"
#include "sim/exec.hh"
#include "util/logging.hh"

namespace tea::sim {

using isa::Instruction;
using isa::Op;

CorePort::~CorePort() = default;

namespace {

/**
 * The largest latency of `cfg` and `port`; fatal() if any is 0 or
 * exceeds `limit`.
 */
unsigned
checkedMaxLatency(const OooConfig &cfg, const CorePort &port,
                  unsigned coreId, unsigned limit)
{
    const std::pair<const char *, unsigned> lats[] = {
        {"latAlu", cfg.latAlu},       {"latMul", cfg.latMul},
        {"latDiv", cfg.latDiv},       {"latFpAdd", cfg.latFpAdd},
        {"latFpMul", cfg.latFpMul},   {"latFpDiv", cfg.latFpDiv},
        {"latFpCvt", cfg.latFpCvt},   {"latAgen", cfg.latAgen},
        {"latCacheHit", cfg.latCacheHit},
        {"latCacheMiss", cfg.latCacheMiss},
    };
    unsigned maxLat = 1;
    for (const auto &[name, lat] : lats) {
        fatal_if(lat == 0,
                 "core %u: OooConfig::%s is 0; every latency must be at "
                 "least 1 cycle",
                 coreId, name);
        fatal_if(lat > limit,
                 "core %u: OooConfig::%s is %u cycles; the core's timing "
                 "wheel holds at most %u",
                 coreId, name, lat, limit);
        maxLat = std::max(maxLat, lat);
    }
    CorePort::LatencyRange portLat = port.loadLatencies();
    fatal_if(portLat.min == 0,
             "core %u: the memory port's loads can take 0 cycles; every "
             "latency must be at least 1 cycle",
             coreId);
    fatal_if(portLat.max > limit,
             "core %u: the memory port's loads can take %u cycles; the "
             "core's timing wheel holds at most %u",
             coreId, portLat.max, limit);
    return std::max(maxLat, portLat.max);
}

} // namespace

CorePipeline::CorePipeline(const isa::Program &prog, const OooConfig &cfg,
                           InjectionPlan plan, CorePort &port,
                           unsigned coreId)
    : prog_(prog), cfg_(cfg), plan_(std::move(plan)), port_(port),
      coreId_(coreId), coreMask_(1u << (coreId & 31)),
      maxLoadLatency_(port.loadLatencies().max), rob_(cfg.robSize),
      robWords_((cfg.robSize + 63) / 64), waiters_(cfg.robSize),
      ready_(robWords_, 0), memPending_(robWords_, 0),
      memRecheck_(robWords_, 0),
      fetchIdx_(prog.entryIndex)
{
    unsigned maxLat = checkedMaxLatency(cfg, port, coreId, kMaxLatency);
    // Every latency is below the wheel size, so a slot never lands in
    // the bucket being walked.
    uint64_t wheelSize = std::bit_ceil(uint64_t{maxLat} + 1);
    wheelMask_ = wheelSize - 1;
    wheel_.assign(wheelSize * robWords_, 0);
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    xreg_[2] = isa::kStackTop - 64;
}

void
CorePipeline::restart(uint64_t entryIdx, uint64_t sp)
{
    head_ = tail_ = count_ = 0;
    for (auto &w : waiters_)
        w.clear();
    std::fill(ready_.begin(), ready_.end(), 0);
    iqCount_ = 0;
    sq_.clear();
    std::fill(memPending_.begin(), memPending_.end(), 0);
    std::fill(memRecheck_.begin(), memRecheck_.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), 0);
    fetchBuf_.clear();
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    loadsInFlight_ = 0;
    fetchIdx_ = entryIdx;
    fetchStopped_ = false;
    xreg_[2] = sp;
    xregTaint_[2] = 0;
}

// ---- fetch -------------------------------------------------------------
void
CorePipeline::fetch()
{
    for (unsigned i = 0; i < cfg_.fetchWidth; ++i) {
        if (fetchStopped_ || fetchBuf_.size() >= 2 * cfg_.fetchWidth)
            return;
        if (fetchIdx_ >= prog_.code.size()) {
            // Wrong-path runaway; wait for a redirect.
            return;
        }
        const Instruction &insn = prog_.code[fetchIdx_];
        uint64_t next = fetchIdx_ + 1;
        if (isa::isBranch(insn.op)) {
            if (pred_.predictTaken(fetchIdx_))
                next = fetchIdx_ + static_cast<int64_t>(insn.imm);
        } else if (insn.op == Op::JAL) {
            next = fetchIdx_ + static_cast<int64_t>(insn.imm);
        } else if (insn.op == Op::JALR) {
            uint64_t t = pred_.predictTarget(fetchIdx_);
            next = (t == ~0ULL) ? fetchIdx_ + 1 : t;
        } else if (insn.op == Op::HALT) {
            fetchBuf_.push_back({fetchIdx_, fetchIdx_});
            fetchStopped_ = true;
            return;
        }
        fetchBuf_.push_back({fetchIdx_, next});
        fetchIdx_ = next;
    }
}

// ---- rename / dispatch -------------------------------------------------
/**
 * Source `src` of the entry at `slot` reads `reg`: from the register
 * file, from a producer that has written back, or — while the producer
 * is still in flight — from its wakeup, for which it waits.
 */
void
CorePipeline::captureSource(size_t slot, int src, unsigned reg, bool isFp)
{
    RobEntry &e = rob_[slot];
    int producer = isFp ? mapFp_[reg] : (reg ? mapInt_[reg] : -1);
    if (producer < 0) {
        e.srcVal[src] = isFp ? freg_[reg] : readIntNow(reg);
        e.srcTaint[src] =
            isFp ? fregTaint_[reg] : (reg ? xregTaint_[reg] : 0);
        return;
    }
    const RobEntry &p = rob_[static_cast<size_t>(producer)];
    if (p.stage == Stage::Done) {
        e.srcVal[src] = p.result;
        e.srcTaint[src] = p.taint;
        return;
    }
    waiters_[static_cast<size_t>(producer)].push_back(
        {static_cast<uint32_t>(slot), static_cast<uint32_t>(src), e.seq});
    ++e.pending;
}

void
CorePipeline::rename()
{
    for (unsigned i = 0; i < cfg_.renameWidth; ++i) {
        if (fetchBuf_.empty() || count_ == rob_.size() ||
            iqCount_ >= cfg_.iqSize)
            return;
        auto [pcIdx, predNext] = fetchBuf_.front();
        const Instruction &insn = prog_.code[pcIdx];
        if (isa::isLoad(insn.op) && loadsInFlight_ >= cfg_.maxLoads)
            return;
        if (isa::isStore(insn.op) && sq_.size() >= cfg_.maxStores)
            return;
        fetchBuf_.pop_front();

        size_t slot = tail_;
        tail_ = robNext(tail_);
        ++count_;
        RobEntry &e = rob_[slot];
        e = RobEntry{};
        e.insn = insn;
        e.pcIdx = pcIdx;
        e.seq = nextSeq_++;
        e.predNextIdx = predNext;
        e.stage = Stage::InIQ;
        e.isLoad = isa::isLoad(insn.op);
        e.isStore = isa::isStore(insn.op);
        e.isCtrl = isa::isBranch(insn.op) || isa::isJump(insn.op);
        e.trap = TrapKind::None;
        // Waiters left by an older, squashed occupant of this slot.
        waiters_[slot].clear();

        // Sources.
        bool ecallFp =
            insn.op == Op::ECALL &&
            insn.imm == static_cast<int>(isa::Syscall::PrintFp);
        if (isa::readsFpRs1(insn.op) || ecallFp)
            captureSource(slot, 0, insn.rs1, true);
        else if (isa::readsIntRs1(insn.op) && !ecallFp)
            captureSource(slot, 0, insn.rs1, false);
        if (isa::readsFpRs2(insn.op))
            captureSource(slot, 1, insn.rs2, true);
        else if (isa::readsIntRs2(insn.op))
            captureSource(slot, 1, insn.rs2, false);
        if (e.isStore)
            captureSource(slot, 1, insn.rd, isa::storeDataIsFp(insn.op));
        if (e.pending == 0)
            setBit(ready_.data(), slot);

        // Destination.
        e.destIsFp = isa::writesFpReg(insn.op);
        e.destReg = insn.rd;
        e.hasDest =
            isa::hasDest(insn.op) && !(!e.destIsFp && insn.rd == 0);
        if (e.hasDest) {
            if (e.destIsFp)
                mapFp_[e.destReg] = static_cast<int>(slot);
            else
                mapInt_[e.destReg] = static_cast<int>(slot);
        }

        if (e.isLoad)
            ++loadsInFlight_;
        if (e.isStore)
            sq_.push_back(slot);
        ++iqCount_;
    }
}

// ---- issue -------------------------------------------------------------
namespace {

/** First slot in [from, end) whose bit is set in `word(w)`, or `end`. */
template <class Word>
size_t
firstSet(Word word, size_t from, size_t end)
{
    while (from < end) {
        size_t w = from >> 6;
        uint64_t bits = word(w) & (~0ULL << (from & 63));
        if (bits)
            return std::min(end, (w << 6) + static_cast<size_t>(
                                                 std::countr_zero(bits)));
        from = (w + 1) << 6;
    }
    return end;
}

/**
 * Call `visit(slot)` for every slot set in `word`, oldest first: `head`
 * to the end of the ring, then 0 to `head`. The bits are read live, so
 * a visit that clears younger slots (a squash) stops the walk at it;
 * `visit` returns false to stop early.
 */
template <class Word, class Visit>
void
walkOldestFirst(Word word, size_t head, size_t n, Visit visit)
{
    for (size_t i = firstSet(word, head, n); i < n;
         i = firstSet(word, i + 1, n))
        if (!visit(i))
            return;
    for (size_t i = firstSet(word, 0, head); i < head;
         i = firstSet(word, i + 1, head))
        if (!visit(i))
            return;
}

} // namespace

unsigned
CorePipeline::latencyOf(Op op) const
{
    if (op == Op::MUL)
        return cfg_.latMul;
    if (op == Op::DIV || op == Op::DIVU || op == Op::REM ||
        op == Op::REMU)
        return cfg_.latDiv;
    if (isa::isFpArith(op)) {
        switch (op) {
          case Op::FADD_D: case Op::FSUB_D:
          case Op::FADD_S: case Op::FSUB_S:
            return cfg_.latFpAdd;
          case Op::FMUL_D: case Op::FMUL_S:
            return cfg_.latFpMul;
          case Op::FDIV_D: case Op::FDIV_S:
            return cfg_.latFpDiv;
          default:
            return cfg_.latFpCvt;
        }
    }
    return cfg_.latAlu;
}

void
CorePipeline::checkMemFault(RobEntry &e)
{
    if (e.addr & (e.size - 1))
        e.trap = TrapKind::Misaligned;
    else if (e.addr < isa::kProtectedTop)
        e.trap = TrapKind::ProtectedAccess;
    else if (!port_.mapped(e.addr, e.size, e.isStore))
        e.trap = TrapKind::MemFault;
}

void
CorePipeline::schedule(size_t slot, unsigned latency)
{
    rob_[slot].due = cycles_ + latency;
    setBit(dueAt(rob_[slot].due), slot);
}

/** Issue a ready entry; false if its divider is still busy. */
bool
CorePipeline::issueOne(size_t slot)
{
    RobEntry &e = rob_[slot];
    Op op = e.insn.op;
    bool intDiv = op == Op::DIV || op == Op::DIVU || op == Op::REM ||
                  op == Op::REMU;
    bool fpDiv = op == Op::FDIV_D || op == Op::FDIV_S;
    if (intDiv && cycles_ < intDivBusyUntil_)
        return false;
    if (fpDiv && cycles_ < fpDivBusyUntil_)
        return false;

    clearBit(ready_.data(), slot);
    --iqCount_;
    uint64_t a = e.srcVal[0];
    uint64_t b = e.srcVal[1];
    e.taint = e.srcTaint[0] | e.srcTaint[1];
    unsigned latency = latencyOf(op);
    e.stage = Stage::Exec;

    if (e.isLoad || e.isStore) {
        e.addr = a + static_cast<int64_t>(e.insn.imm);
        e.size = memAccessSize(op);
        checkMemFault(e);
        if (e.isStore)
            e.result = b; // store data
        latency = cfg_.latAgen;
    } else if (isa::isBranch(op)) {
        bool taken = branchTaken(op, a, b);
        e.actualNextIdx =
            taken ? e.pcIdx + static_cast<int64_t>(e.insn.imm)
                  : e.pcIdx + 1;
        latency = cfg_.latAlu;
    } else if (op == Op::JAL) {
        e.actualNextIdx = e.pcIdx + static_cast<int64_t>(e.insn.imm);
        e.result = (e.pcIdx + 1) * 4 + isa::kCodeBase;
        latency = cfg_.latAlu;
    } else if (op == Op::JALR) {
        uint64_t target = a + static_cast<int64_t>(e.insn.imm);
        e.result = (e.pcIdx + 1) * 4 + isa::kCodeBase;
        if (target < isa::kCodeBase || (target & 3) ||
            (target - isa::kCodeBase) / 4 >= prog_.code.size()) {
            e.trap = TrapKind::BadJump;
            e.actualNextIdx = e.pcIdx + 1; // never used
        } else {
            e.actualNextIdx = (target - isa::kCodeBase) / 4;
        }
        latency = cfg_.latAlu;
    } else if (op == Op::ECALL) {
        e.result = a; // value captured for commit
        latency = cfg_.latAlu;
    } else if (op == Op::HALT || op == Op::NOP) {
        latency = 1;
    } else {
        ExecOut out = execArith(e.insn, a, b);
        e.result = out.value;
        if (out.fpSevere && cfg_.trapOnSevereFp && isa::isFpArith(op))
            e.trap = TrapKind::FpException;
        if (intDiv)
            intDivBusyUntil_ = cycles_ + cfg_.latDiv;
        if (fpDiv)
            fpDivBusyUntil_ = cycles_ + cfg_.latFpDiv;
    }
    schedule(slot, latency);
    return true;
}

/** Select up to `issueWidth` ready entries, oldest first. */
void
CorePipeline::issue()
{
    unsigned issued = 0;
    walkOldestFirst([this](size_t w) { return ready_[w]; }, head_,
                    rob_.size(), [&](size_t slot) {
                        if (issued == cfg_.issueWidth)
                            return false;
                        if (issueOne(slot))
                            ++issued;
                        return true;
                    });
}

// ---- injection at writeback --------------------------------------------
void
CorePipeline::applyInjection(RobEntry &e)
{
    if (e.hasDest) {
        const auto &events = plan_.anyDest();
        while (anyDestPtr_ < events.size() &&
               events[anyDestPtr_].first == anyDestCount_) {
            e.result ^= events[anyDestPtr_].second;
            e.injected = true;
            e.taint |= coreMask_;
            ++injApplied_;
            ++anyDestPtr_;
        }
        ++anyDestCount_;
    }
    if (isa::isFpArith(e.insn.op)) {
        auto op = isa::fpuOpFor(e.insn.op);
        auto idx = static_cast<size_t>(op);
        const auto &events = plan_.fpOp(op);
        while (fpOpPtr_[idx] < events.size() &&
               events[fpOpPtr_[idx]].first == fpOpCount_[idx]) {
            e.result ^= events[fpOpPtr_[idx]].second;
            e.injected = true;
            e.taint |= coreMask_;
            ++injApplied_;
            ++fpOpPtr_[idx];
        }
        ++fpOpCount_[idx];
    }
}

// ---- squash ------------------------------------------------------------
void
CorePipeline::squashAfter(size_t slot, uint64_t redirectIdx,
                          bool stopFetch)
{
    // Kill everything younger than `slot`, taking each entry out of the
    // structure its stage keeps it in.
    while (tail_ != robNext(slot)) {
        size_t last = (tail_ + rob_.size() - 1) % rob_.size();
        RobEntry &e = rob_[last];
        switch (e.stage) {
          case Stage::InIQ:
            clearBit(ready_.data(), last);
            --iqCount_;
            break;
          case Stage::Exec:
          case Stage::MemAccess:
            unschedule(last);
            break;
          case Stage::MemPending:
            clearBit(memPending_.data(), last);
            clearBit(memRecheck_.data(), last);
            break;
          case Stage::Done:
            break;
        }
        if (e.isLoad)
            --loadsInFlight_;
        if (e.isStore)
            sq_.pop_back();
        if (e.injected)
            ++injWrongPath_;
        // Wakeups still queued for this entry must not land.
        e.seq = kSquashed;
        ++squashed_;
        tail_ = last;
        --count_;
    }
    // Rebuild the rename tables from the surviving entries.
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    for (size_t i = head_, n = 0; n < count_; i = robNext(i), ++n) {
        RobEntry &e = rob_[i];
        if (e.hasDest) {
            if (e.destIsFp)
                mapFp_[e.destReg] = static_cast<int>(i);
            else
                mapInt_[e.destReg] = static_cast<int>(i);
        }
    }
    fetchBuf_.clear();
    fetchIdx_ = redirectIdx;
    fetchStopped_ = stopFetch;
}

// ---- writeback / memory progression ------------------------------------
/**
 * The entry at `slot` writes back: injection, then wakeup of every
 * source waiting for it (a waiter whose slot was squashed or reused
 * carries a stale `seq` and is skipped), then branch resolution.
 */
void
CorePipeline::finishExec(size_t slot)
{
    RobEntry &e = rob_[slot];
    e.stage = Stage::Done;
    ++executed_;
    applyInjection(e);
    for (const Waiter &w : waiters_[slot]) {
        RobEntry &c = rob_[w.slot];
        if (c.seq != w.seq)
            continue;
        c.srcVal[w.src] = e.result;
        c.srcTaint[w.src] = e.taint;
        if (--c.pending == 0)
            setBit(ready_.data(), w.slot);
    }
    waiters_[slot].clear();
    if (e.isStore)
        newStoreEpoch();
    if (e.isCtrl && !e.resolved) {
        e.resolved = true;
        if (isa::isBranch(e.insn.op))
            pred_.update(e.pcIdx, e.actualNextIdx != e.pcIdx + 1);
        if (e.insn.op == Op::JALR && e.trap == TrapKind::None)
            pred_.updateTarget(e.pcIdx, e.actualNextIdx);
        if (e.trap != TrapKind::None) {
            // Bad jump: stop fetching down this path entirely.
            ++mispredicts_;
            squashAfter(slot, 0, true);
        } else if (e.actualNextIdx != e.predNextIdx) {
            ++mispredicts_;
            squashAfter(slot, e.actualNextIdx, false);
        }
    }
}

/**
 * Disambiguate a load against older in-flight stores, youngest first:
 * the first older store that is unresolved, trapped or overlapping
 * decides; no such store means the load may access memory.
 */
CorePipeline::MemCheck
CorePipeline::checkLoad(size_t slot, uint64_t &forwardValue,
                        uint32_t &forwardTaint)
{
    const RobEntry &ld = rob_[slot];
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const RobEntry &st = rob_[*it];
        if (st.seq > ld.seq)
            continue; // younger than the load
        if (st.stage != Stage::Done)
            return MemCheck::Wait; // address unknown
        if (st.trap != TrapKind::None)
            return MemCheck::Wait; // will crash at commit
        bool overlap = st.addr < ld.addr + ld.size &&
                       ld.addr < st.addr + st.size;
        if (!overlap)
            continue;
        if (st.addr == ld.addr && st.size == ld.size) {
            forwardValue = st.result;
            forwardTaint = st.taint;
            return MemCheck::Forward;
        }
        return MemCheck::Wait; // partial overlap: wait for commit
    }
    return MemCheck::Ready;
}

/** One cycle of progress for a slot that is due or in MemPending. */
void
CorePipeline::progress(size_t slot)
{
    RobEntry &e = rob_[slot];
    switch (e.stage) {
      case Stage::Exec:
        unschedule(slot);
        if (e.isLoad && e.trap == TrapKind::None) {
            e.stage = Stage::MemPending;
            setBit(memPending_.data(), slot);
            setBit(memRecheck_.data(), slot);
        } else {
            finishExec(slot);
        }
        break;
      case Stage::MemPending: {
        uint64_t fwd = 0;
        uint32_t fwdTaint = 0;
        MemCheck c = checkLoad(slot, fwd, fwdTaint);
        clearBit(memRecheck_.data(), slot);
        if (c == MemCheck::Wait)
            break; // stands until the next store epoch
        clearBit(memPending_.data(), slot);
        e.stage = Stage::MemAccess;
        if (c == MemCheck::Forward) {
            e.result = fwd;
            e.memTaint = fwdTaint;
            e.taint |= fwdTaint;
            schedule(slot, 1);
        } else {
            CorePort::LoadResult lr = port_.load(e.addr, e.size);
            panic_if(lr.latency == 0 || lr.latency > maxLoadLatency_,
                     "core %u: a load took %u cycles, outside the port's "
                     "declared range",
                     coreId_, lr.latency);
            e.result = lr.value;
            e.memTaint = lr.taint;
            e.taint |= lr.taint;
            schedule(slot, lr.latency);
        }
        break;
      }
      case Stage::MemAccess:
        unschedule(slot);
        if (e.insn.op == Op::LW) {
            e.result = static_cast<uint64_t>(
                static_cast<int64_t>(static_cast<int32_t>(e.result)));
        }
        finishExec(slot);
        break;
      default:
        break;
    }
}

/**
 * Advance the slots due this cycle and the loads to re-check, oldest
 * first. The bits are read live: a store finishing here re-arms the
 * younger waiting loads for this same walk, and a squash inside
 * finishExec clears the bits of every younger slot, so the walk stops
 * at the mispredicted instruction.
 */
void
CorePipeline::writeback()
{
    const uint64_t *due = dueAt(cycles_);
    walkOldestFirst(
        [&](size_t w) { return due[w] | memRecheck_[w]; }, head_,
        rob_.size(), [this](size_t slot) {
            progress(slot);
            return true;
        });
}

// ---- commit ------------------------------------------------------------
CorePipeline::CommitOutcome
CorePipeline::commit(TrapKind &trapOut)
{
    for (unsigned i = 0; i < cfg_.commitWidth; ++i) {
        if (count_ == 0)
            return CommitOutcome::Continue;
        RobEntry &e = rob_[head_];
        if (e.stage != Stage::Done)
            return CommitOutcome::Continue;
        if (e.trap != TrapKind::None) {
            trapOut = e.trap;
            return CommitOutcome::Crash;
        }
        if (e.insn.op == Op::HALT) {
            ++committed_;
            return CommitOutcome::Halt;
        }
        if (e.insn.op == Op::ECALL) {
            TrapKind sysTrap = TrapKind::None;
            CorePort::Sys act =
                port_.syscall(e.insn.imm, e.result, sysTrap);
            if (act == CorePort::Sys::Stall)
                return CommitOutcome::Continue;
            if (act == CorePort::Sys::Fault) {
                trapOut = sysTrap;
                return CommitOutcome::Crash;
            }
            if (e.insn.imm >=
                    static_cast<int32_t>(isa::Syscall::Spawn) &&
                e.insn.imm <=
                    static_cast<int32_t>(isa::Syscall::Barrier)) {
                // Synchronization syscalls are fences: younger
                // instructions may have speculatively loaded memory
                // that another core rewrites while this core is
                // parked at the barrier/join, so their results are
                // stale the moment the syscall proceeds. Squash and
                // refetch from the next instruction.
                squashAfter(head_, e.pcIdx + 1, false);
                head_ = robNext(head_);
                --count_;
                ++committed_;
                return CommitOutcome::Continue;
            }
        }
        if (e.isStore) {
            port_.store(e.addr, e.size, e.result, e.taint);
            sq_.pop_front();
            newStoreEpoch();
        }
        if (e.isLoad) {
            --loadsInFlight_;
            if (e.memTaint & ~coreMask_)
                ++crossLoads_;
        }
        if (e.hasDest) {
            if (e.destIsFp) {
                freg_[e.destReg] = e.result;
                fregTaint_[e.destReg] = e.taint;
                if (mapFp_[e.destReg] == static_cast<int>(head_))
                    mapFp_[e.destReg] = -1;
            } else {
                xreg_[e.destReg] = e.result;
                xregTaint_[e.destReg] = e.taint;
                if (mapInt_[e.destReg] == static_cast<int>(head_))
                    mapInt_[e.destReg] = -1;
            }
        }
        head_ = robNext(head_);
        --count_;
        ++committed_;
    }
    return CommitOutcome::Continue;
}

CorePipeline::Step
CorePipeline::step(TrapKind &trap)
{
    ++cycles_;
    auto outcome = commit(trap);
    if (outcome == CommitOutcome::Halt)
        return Step::Halted;
    if (outcome == CommitOutcome::Crash)
        return Step::Crashed;
    writeback();
    issue();
    rename();
    fetch();
    return Step::Running;
}

} // namespace tea::sim
