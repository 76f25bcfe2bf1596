#include "sim/pipeline.hh"

#include <algorithm>

#include "isa/isa.hh"
#include "sim/exec.hh"
#include "util/logging.hh"

namespace tea::sim {

using isa::Instruction;
using isa::Op;

CorePort::~CorePort() = default;

CorePipeline::CorePipeline(const isa::Program &prog, const OooConfig &cfg,
                           InjectionPlan plan, CorePort &port,
                           unsigned coreId)
    : prog_(prog), cfg_(cfg), plan_(std::move(plan)), port_(port),
      coreId_(coreId), coreMask_(1u << (coreId & 31)),
      rob_(cfg.robSize), busy_((cfg.robSize + 63) / 64, 0),
      fetchIdx_(prog.entryIndex)
{
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    xreg_[2] = isa::kStackTop - 64;
}

void
CorePipeline::restart(uint64_t entryIdx, uint64_t sp)
{
    head_ = tail_ = count_ = 0;
    sq_.clear();
    std::fill(busy_.begin(), busy_.end(), 0);
    iq_.clear();
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
void
CorePipeline::captureSource(RobEntry &e, int slot, unsigned reg,
                            bool isFp)
{
    e.srcIsFp[slot] = isFp;
    int producer = isFp ? mapFp_[reg] : (reg ? mapInt_[reg] : -1);
    if (producer >= 0) {
        e.src[slot] = producer;
        e.srcVal[slot] = 0;
        e.srcTaint[slot] = 0;
    } else {
        e.src[slot] = -1;
        e.srcVal[slot] = isFp ? freg_[reg] : readIntNow(reg);
        e.srcTaint[slot] =
            isFp ? fregTaint_[reg] : (reg ? xregTaint_[reg] : 0);
    }
}

void
CorePipeline::rename()
{
    for (unsigned i = 0; i < cfg_.renameWidth; ++i) {
        if (fetchBuf_.empty() || count_ == rob_.size() ||
            iq_.size() >= cfg_.iqSize)
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
        e.src[0] = e.src[1] = -1;
        e.isLoad = isa::isLoad(insn.op);
        e.isStore = isa::isStore(insn.op);
        e.isCtrl = isa::isBranch(insn.op) || isa::isJump(insn.op);
        e.trap = TrapKind::None;

        // Sources.
        bool ecallFp =
            insn.op == Op::ECALL &&
            insn.imm == static_cast<int>(isa::Syscall::PrintFp);
        if (isa::readsFpRs1(insn.op) || ecallFp)
            captureSource(e, 0, insn.rs1, true);
        else if (isa::readsIntRs1(insn.op) && !ecallFp)
            captureSource(e, 0, insn.rs1, false);
        if (isa::readsFpRs2(insn.op))
            captureSource(e, 1, insn.rs2, true);
        else if (isa::readsIntRs2(insn.op))
            captureSource(e, 1, insn.rs2, false);
        if (e.isStore)
            captureSource(e, 1, insn.rd, isa::storeDataIsFp(insn.op));

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
        iq_.push_back(static_cast<int>(slot));
    }
}

// ---- issue -------------------------------------------------------------
bool
CorePipeline::sourcesReady(const RobEntry &e) const
{
    for (int s = 0; s < 2; ++s) {
        if (e.src[s] >= 0 &&
            rob_[static_cast<size_t>(e.src[s])].stage != Stage::Done)
            return false;
    }
    return true;
}

uint64_t
CorePipeline::sourceValue(const RobEntry &e, int s) const
{
    if (e.src[s] >= 0)
        return rob_[static_cast<size_t>(e.src[s])].result;
    return e.srcVal[s];
}

uint32_t
CorePipeline::sourceTaint(const RobEntry &e, int s) const
{
    if (e.src[s] >= 0)
        return rob_[static_cast<size_t>(e.src[s])].taint;
    return e.srcTaint[s];
}

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
CorePipeline::issue()
{
    unsigned issued = 0;
    for (auto it = iq_.begin();
         it != iq_.end() && issued < cfg_.issueWidth;) {
        RobEntry &e = rob_[static_cast<size_t>(*it)];
        if (!sourcesReady(e)) {
            ++it;
            continue;
        }
        Op op = e.insn.op;
        bool intDiv = op == Op::DIV || op == Op::DIVU ||
                      op == Op::REM || op == Op::REMU;
        bool fpDiv = op == Op::FDIV_D || op == Op::FDIV_S;
        if (intDiv && cycles_ < intDivBusyUntil_) {
            ++it;
            continue;
        }
        if (fpDiv && cycles_ < fpDivBusyUntil_) {
            ++it;
            continue;
        }

        uint64_t a = sourceValue(e, 0);
        uint64_t b = sourceValue(e, 1);
        e.taint = sourceTaint(e, 0) | sourceTaint(e, 1);
        e.countdown = latencyOf(op);
        e.stage = Stage::Exec;
        setBusy(static_cast<size_t>(*it));

        if (e.isLoad || e.isStore) {
            e.addr = a + static_cast<int64_t>(e.insn.imm);
            e.size = memAccessSize(op);
            checkMemFault(e);
            if (e.isStore)
                e.result = b; // store data
            e.countdown = cfg_.latAgen;
        } else if (isa::isBranch(op)) {
            bool taken = branchTaken(op, a, b);
            e.actualNextIdx =
                taken ? e.pcIdx + static_cast<int64_t>(e.insn.imm)
                      : e.pcIdx + 1;
            e.countdown = cfg_.latAlu;
        } else if (op == Op::JAL) {
            e.actualNextIdx = e.pcIdx + static_cast<int64_t>(e.insn.imm);
            e.result = (e.pcIdx + 1) * 4 + isa::kCodeBase;
            e.countdown = cfg_.latAlu;
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
            e.countdown = cfg_.latAlu;
        } else if (op == Op::ECALL) {
            e.result = a; // value captured for commit
            e.countdown = cfg_.latAlu;
        } else if (op == Op::HALT || op == Op::NOP) {
            e.countdown = 1;
        } else {
            ExecOut out = execArith(e.insn, a, b);
            e.result = out.value;
            if (out.fpSevere && cfg_.trapOnSevereFp &&
                isa::isFpArith(op))
                e.trap = TrapKind::FpException;
            if (intDiv)
                intDivBusyUntil_ = cycles_ + cfg_.latDiv;
            if (fpDiv)
                fpDivBusyUntil_ = cycles_ + cfg_.latFpDiv;
        }
        it = iq_.erase(it);
        ++issued;
    }
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
    // Kill everything younger than `slot`.
    while (tail_ != robNext(slot)) {
        size_t last = (tail_ + rob_.size() - 1) % rob_.size();
        RobEntry &e = rob_[last];
        if (e.isLoad)
            --loadsInFlight_;
        if (e.isStore)
            sq_.pop_back();
        clearBusy(last);
        if (e.injected)
            ++injWrongPath_;
        ++squashed_;
        tail_ = last;
        --count_;
    }
    // Drop IQ entries that no longer exist.
    uint64_t maxSeq = rob_[slot].seq;
    std::erase_if(iq_, [&](int s) {
        return rob_[static_cast<size_t>(s)].seq > maxSeq ||
               rob_[static_cast<size_t>(s)].stage != Stage::InIQ;
    });
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
void
CorePipeline::finishExec(size_t slot)
{
    RobEntry &e = rob_[slot];
    e.stage = Stage::Done;
    clearBusy(slot);
    ++executed_;
    applyInjection(e);
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

/** First busy ROB slot in [from, end), or `end` if there is none. */
size_t
CorePipeline::nextBusy(size_t from, size_t end) const
{
    while (from < end) {
        size_t w = from >> 6;
        uint64_t bits = busy_[w] & (~0ULL << (from & 63));
        if (bits)
            return std::min(end, (w << 6) + static_cast<size_t>(
                                                 __builtin_ctzll(bits)));
        from = (w + 1) << 6;
    }
    return end;
}

/** One cycle of progress for a busy (executing or loading) slot. */
void
CorePipeline::progress(size_t slot)
{
    RobEntry &e = rob_[slot];
    switch (e.stage) {
      case Stage::Exec:
        if (--e.countdown == 0) {
            if (e.isLoad && e.trap == TrapKind::None)
                e.stage = Stage::MemPending;
            else
                finishExec(slot);
        }
        break;
      case Stage::MemPending: {
        uint64_t fwd = 0;
        uint32_t fwdTaint = 0;
        MemCheck c = checkLoad(slot, fwd, fwdTaint);
        if (c == MemCheck::Forward) {
            e.result = fwd;
            e.memTaint = fwdTaint;
            e.taint |= fwdTaint;
            e.stage = Stage::MemAccess;
            e.countdown = 1;
        } else if (c == MemCheck::Ready) {
            CorePort::LoadResult lr = port_.load(e.addr, e.size);
            e.result = lr.value;
            e.memTaint = lr.taint;
            e.taint |= lr.taint;
            e.stage = Stage::MemAccess;
            e.countdown = lr.latency;
        }
        break;
      }
      case Stage::MemAccess:
        if (--e.countdown == 0) {
            if (e.insn.op == Op::LW) {
                e.result = static_cast<uint64_t>(
                    static_cast<int64_t>(static_cast<int32_t>(e.result)));
            }
            finishExec(slot);
        }
        break;
      default:
        break;
    }
}

/**
 * Advance every busy slot, oldest first: head_ to the end of the ring,
 * then 0 to head_. A squash inside finishExec clears the bits of every
 * younger slot, so the walk stops at the mispredicted instruction.
 */
void
CorePipeline::writeback()
{
    size_t n = rob_.size();
    for (size_t i = nextBusy(head_, n); i < n; i = nextBusy(i + 1, n))
        progress(i);
    for (size_t i = nextBusy(0, head_); i < head_;
         i = nextBusy(i + 1, head_))
        progress(i);
}

// ---- commit ------------------------------------------------------------
/** Patch IQ waiters whose producer leaves the ROB. */
void
CorePipeline::patchWaiters(size_t slot, uint64_t value, uint32_t taint)
{
    for (int s : iq_) {
        RobEntry &e = rob_[static_cast<size_t>(s)];
        for (int k = 0; k < 2; ++k) {
            if (e.src[k] == static_cast<int>(slot)) {
                e.src[k] = -1;
                e.srcVal[k] = value;
                e.srcTaint[k] = taint;
            }
        }
    }
}

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
        }
        if (e.isLoad) {
            --loadsInFlight_;
            if (e.memTaint & ~coreMask_)
                ++crossLoads_;
        }
        if (e.hasDest) {
            patchWaiters(head_, e.result, e.taint);
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
