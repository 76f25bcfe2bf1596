#include "circuit/dta.hh"

#include <algorithm>
#include <queue>

#include "util/logging.hh"


namespace tea::circuit {



bool
DtaResult::anyError() const
{
    for (size_t i = 0; i < settled.size(); ++i)
        if (settled[i] != captured[i])
            return true;
    return false;
}

uint64_t
DtaResult::errorMask64() const
{
    panic_if(settled.size() > 64,
             "errorMask64: %zu output bits do not fit a 64-bit mask",
             settled.size());
    uint64_t mask = 0;
    size_t n = settled.size();
    for (size_t i = 0; i < n; ++i)
        if (settled[i] != captured[i])
            mask |= 1ULL << i;
    return mask;
}

namespace {

/** Clamp event explosion: a runaway glitch train is a bug. */
constexpr size_t kMaxEvents = 100'000'000;

} // namespace

EventDrivenDta::EventDrivenDta(const Netlist &nl,
                               const DelayAnnotation &annot,
                               double delayScale)
    : nl_(nl), delays_(annot.delays()),
      clkToQ_(annot.library().clkToQPs * delayScale)
{
    for (auto &d : delays_)
        d *= delayScale;
}

DtaResult
EventDrivenDta::run(const std::vector<bool> &prev,
                    const std::vector<bool> &cur, double captureTimePs)
{
    panic_if(prev.size() != nl_.numInputs() ||
                 cur.size() != nl_.numInputs(),
             "EventDrivenDta: bad input vector size");

    // Steady state of the previous operation.
    std::vector<bool> values = evaluate(nl_, prev);
    std::vector<bool> capturedVals = values;
    std::vector<double> lastTransition(nl_.numCells(), 0.0);

    struct Event
    {
        double time;
        uint64_t serial; // total order tie-break for determinism
        NetId cell;
        bool value;
        bool operator>(const Event &o) const
        {
            if (time != o.time)
                return time > o.time;
            return serial > o.serial;
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
    uint64_t serial = 0;

    for (NetId i = 0; i < nl_.numInputs(); ++i)
        if (cur[i] != prev[i])
            pq.push(Event{clkToQ_, serial++, i, cur[i]});

    const auto &fanouts = nl_.fanouts();
    const auto &cells = nl_.cells();
    size_t processed = 0;

    while (!pq.empty()) {
        Event ev = pq.top();
        pq.pop();
        if (values[ev.cell] == ev.value)
            continue; // superseded by an earlier opposite transition
        panic_if(++processed > kMaxEvents,
                 "event explosion in netlist '%s'", nl_.name().c_str());

        values[ev.cell] = ev.value;
        lastTransition[ev.cell] = ev.time;
        if (ev.time <= captureTimePs)
            capturedVals[ev.cell] = ev.value;

        for (NetId f : fanouts[ev.cell]) {
            const Cell &cell = cells[f];
            bool a = cell.fanin[0] != invalidNet && values[cell.fanin[0]];
            bool b = cell.fanin[1] != invalidNet && values[cell.fanin[1]];
            bool c = cell.fanin[2] != invalidNet && values[cell.fanin[2]];
            bool out = evalCell(cell.kind, a, b, c);
            pq.push(Event{ev.time + delays_[f], serial++, f, out});
        }
    }

    DtaResult res;
    auto outs = nl_.flatOutputs();
    res.settled.reserve(outs.size());
    res.captured.reserve(outs.size());
    res.lastTransitionPs.reserve(outs.size());
    for (NetId n : outs) {
        res.settled.push_back(values[n]);
        res.captured.push_back(capturedVals[n]);
        res.lastTransitionPs.push_back(lastTransition[n]);
        res.maxArrivalPs = std::max(res.maxArrivalPs, lastTransition[n]);
    }
    res.events = processed;
    return res;
}

LevelizedDta::LevelizedDta(const Netlist &nl, const DelayAnnotation &annot,
                           double delayScale)
    : nl_(nl), delays_(annot.delays()),
      clkToQ_(annot.library().clkToQPs * delayScale)
{
    for (auto &d : delays_)
        d *= delayScale;
}

DtaResult
LevelizedDta::run(const std::vector<bool> &prev,
                  const std::vector<bool> &cur, double captureTimePs)
{
    panic_if(prev.size() != nl_.numInputs() ||
                 cur.size() != nl_.numInputs(),
             "LevelizedDta: bad input vector size");

    size_t n = nl_.numCells();
    oldVal_.resize(n);
    newVal_.resize(n);
    arrival_.resize(n);

    const auto &cells = nl_.cells();
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        if (cell.kind == CellKind::Input) {
            oldVal_[id] = prev[id];
            newVal_[id] = cur[id];
            arrival_[id] = (prev[id] != cur[id]) ? clkToQ_ : 0.0;
            continue;
        }
        bool oa = cell.fanin[0] != invalidNet && oldVal_[cell.fanin[0]];
        bool ob = cell.fanin[1] != invalidNet && oldVal_[cell.fanin[1]];
        bool oc = cell.fanin[2] != invalidNet && oldVal_[cell.fanin[2]];
        bool na = cell.fanin[0] != invalidNet && newVal_[cell.fanin[0]];
        bool nb = cell.fanin[1] != invalidNet && newVal_[cell.fanin[1]];
        bool nc = cell.fanin[2] != invalidNet && newVal_[cell.fanin[2]];
        bool ov, nv;
        if (cell.kind == CellKind::Const0) {
            ov = nv = false;
        } else if (cell.kind == CellKind::Const1) {
            ov = nv = true;
        } else {
            ov = evalCell(cell.kind, oa, ob, oc);
            nv = evalCell(cell.kind, na, nb, nc);
        }
        oldVal_[id] = ov;
        newVal_[id] = nv;
        if (ov == nv) {
            // Approximation: a stable output is assumed hazard-free.
            arrival_[id] = 0.0;
        } else {
            // Last arrival = slowest *changed* fanin plus own delay.
            double worst = 0.0;
            unsigned arity = cellArity(cell.kind);
            for (unsigned i = 0; i < arity; ++i) {
                NetId fi = cell.fanin[i];
                if (oldVal_[fi] != newVal_[fi])
                    worst = std::max(worst, arrival_[fi]);
            }
            arrival_[id] = worst + delays_[id];
        }
    }

    DtaResult res;
    auto outs = nl_.flatOutputs();
    res.settled.reserve(outs.size());
    res.captured.reserve(outs.size());
    res.lastTransitionPs.reserve(outs.size());
    for (NetId net : outs) {
        bool changed = oldVal_[net] != newVal_[net];
        double arr = changed ? arrival_[net] : 0.0;
        bool capturedBit =
            (changed && arr > captureTimePs) ? oldVal_[net] : newVal_[net];
        res.settled.push_back(newVal_[net]);
        res.captured.push_back(capturedBit);
        res.lastTransitionPs.push_back(arr);
        res.maxArrivalPs = std::max(res.maxArrivalPs, arr);
    }
    return res;
}

namespace {

/**
 * Bitwise plane evaluation of one cell function: each bit position is
 * an independent lane. Must agree with evalCell() lane by lane.
 */
inline uint64_t
evalCellPlane(CellKind kind, uint64_t a, uint64_t b, uint64_t c)
{
    switch (kind) {
      case CellKind::Buf:
        return a;
      case CellKind::Not:
        return ~a;
      case CellKind::And2:
        return a & b;
      case CellKind::Or2:
        return a | b;
      case CellKind::Xor2:
        return a ^ b;
      case CellKind::Nand2:
        return ~(a & b);
      case CellKind::Nor2:
        return ~(a | b);
      case CellKind::Xnor2:
        return ~(a ^ b);
      case CellKind::Mux2:
        return (a & c) | (~a & b); // sel ? b-input : a-input
      case CellKind::Maj3:
        return (a & b) | (a & c) | (b & c);
      default:
        panic("evalCellPlane: unexpected cell kind %d",
              static_cast<int>(kind));
    }
}

} // namespace

LaneDta::LaneDta(const Netlist &nl, const DelayAnnotation &annot,
                 double delayScale)
    : nl_(nl), delays_(annot.delays()),
      clkToQ_(annot.library().clkToQPs * delayScale),
      outs_(nl.flatOutputs())
{
    for (auto &d : delays_)
        d *= delayScale;
    arity_.reserve(nl_.numCells());
    for (const Cell &cell : nl_.cells())
        arity_.push_back(static_cast<uint8_t>(cellArity(cell.kind)));
}

void
LaneDta::rebuildRiskyCone(double captureTimePs)
{
    // A lane's dynamic arrival at an output is the static length of
    // some toggling chain, so an arrival can only exceed the capture
    // time along a chain whose static length does: every cell of such
    // a chain has staticArr + remaining > captureTimePs. Restricting
    // the timing recurrence to these cells preserves every capture
    // decision (the maximizing late chain survives intact) and skips
    // the toggles that could never be late.
    size_t n = nl_.numCells();
    std::vector<double> staticArr(n, 0.0);
    remaining_.assign(n, 0.0);
    const auto &cells = nl_.cells();
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        if (cell.kind == CellKind::Input) {
            staticArr[id] = clkToQ_;
            continue;
        }
        double worst = 0.0;
        for (unsigned i = 0; i < arity_[id]; ++i)
            worst = std::max(worst, staticArr[cell.fanin[i]]);
        staticArr[id] = worst + delays_[id];
    }
    for (NetId id = static_cast<NetId>(n); id-- > 0;) {
        double through = remaining_[id] + delays_[id];
        for (unsigned i = 0; i < arity_[id]; ++i) {
            NetId fi = cells[id].fanin[i];
            remaining_[fi] = std::max(remaining_[fi], through);
        }
    }
    riskyMask_.resize(n);
    size_t risky = 0;
    for (NetId id = 0; id < n; ++id) {
        riskyMask_[id] =
            staticArr[id] + remaining_[id] > captureTimePs ? ~0ULL : 0;
        risky += riskyMask_[id] != 0 && cells[id].kind != CellKind::Input;
    }
    riskyCaptureTimePs_ = captureTimePs;
    // The toggled set is a subset of the risky cone: size the timing
    // pass's buffers for it once, so batches of varying toggle counts
    // never regrow (and fragment) them.
    toggled_.reserve(risky);
    laneArrival_.reserve((risky + 1) * 64);
}

const LaneBatch &
LaneDta::runBatch(const std::vector<uint64_t> &prev,
                  const std::vector<uint64_t> &cur, double captureTimePs,
                  unsigned lanes)
{
    panic_if(prev.size() != nl_.numInputs() ||
                 cur.size() != nl_.numInputs(),
             "LaneDta: bad input plane count");
    panic_if(lanes == 0 || lanes > kMaxLanes, "LaneDta: bad lane count %u",
             lanes);

    size_t n = nl_.numCells();
    oldPlane_.resize(n);
    newPlane_.resize(n);
    togglePlane_.resize(n);
    toggled_.clear();
    if (tpos_.size() != n) {
        // Every input shares arrival row 0 (the constant clk-to-Q
        // row), so input cells never need a timing-pass visit.
        tpos_.assign(n, 0);
    }

    if (captureTimePs != riskyCaptureTimePs_)
        rebuildRiskyCone(captureTimePs);

    // Unused high lanes carry garbage; masking the toggle plane keeps
    // them out of the (expensive) timing pass and out of toggled_.
    const uint64_t laneMask =
        lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;

    // SWAR value sweep: both value planes of every net in one pass.
    const auto &cells = nl_.cells();
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        uint64_t ov, nv;
        switch (cell.kind) {
          case CellKind::Input:
            ov = prev[id];
            nv = cur[id];
            break;
          case CellKind::Const0:
            ov = nv = 0;
            break;
          case CellKind::Const1:
            ov = nv = ~0ULL;
            break;
          default: {
            uint64_t oa = cell.fanin[0] != invalidNet
                              ? oldPlane_[cell.fanin[0]] : 0;
            uint64_t ob = cell.fanin[1] != invalidNet
                              ? oldPlane_[cell.fanin[1]] : 0;
            uint64_t oc = cell.fanin[2] != invalidNet
                              ? oldPlane_[cell.fanin[2]] : 0;
            uint64_t na = cell.fanin[0] != invalidNet
                              ? newPlane_[cell.fanin[0]] : 0;
            uint64_t nb = cell.fanin[1] != invalidNet
                              ? newPlane_[cell.fanin[1]] : 0;
            uint64_t nc = cell.fanin[2] != invalidNet
                              ? newPlane_[cell.fanin[2]] : 0;
            ov = evalCellPlane(cell.kind, oa, ob, oc);
            nv = evalCellPlane(cell.kind, na, nb, nc);
            break;
          }
        }
        oldPlane_[id] = ov;
        newPlane_[id] = nv;
        // Toggles outside the capture-risky cone never produce a late
        // arrival; masking them here keeps them out of the timing pass
        // and out of the recurrence's fanin maxima (that restriction
        // is what makes the pass sparse — see rebuildRiskyCone).
        uint64_t t = (ov ^ nv) & laneMask & riskyMask_[id];
        togglePlane_[id] = t;
        // Inputs keep their toggle bits (fanin reads below need them)
        // but skip the visit list: they map to the shared clk-to-Q
        // arrival row instead.
        if (t && cell.kind != CellKind::Input) {
            tpos_[id] = static_cast<uint32_t>(toggled_.size()) + 1;
            toggled_.push_back(id);
        }
    }

    batch_.settled.resize(outs_.size());
    batch_.captured.resize(outs_.size());
    for (size_t k = 0; k < outs_.size(); ++k) {
        batch_.settled[k] = newPlane_[outs_[k]];
        batch_.captured[k] = newPlane_[outs_[k]];
    }
    batch_.maxArrivalPs.fill(0.0);

    // Sparse transposed timing pass: the scalar LevelizedDta arrival
    // recurrence, visiting only set toggle bits (cell-major, ctz over
    // the cell's toggle plane) so no iteration is spent on lanes a
    // cell is quiet in. Arrivals live in 64-lane rows compacted over
    // the toggled set: a fanin's row is only read when its toggle bit
    // is set, and that row was written earlier in this pass
    // (topological order), so rows need no clearing between calls.
    laneArrival_.resize((toggled_.size() + 1) * 64);
    for (unsigned l = 0; l < 64; ++l)
        laneArrival_[l] = clkToQ_; // shared input row
    const uint64_t *tp = togglePlane_.data();
    for (NetId id : toggled_) {
        uint64_t t = tp[id];
        const Cell &cell = cells[id];
        const unsigned arity = arity_[id];
        const double d = delays_[id];
        const double rem = remaining_[id];
        double *row = &laneArrival_[size_t{tpos_[id]} * 64];
        NetId fi[3] = {0, 0, 0};
        const double *frow[3] = {nullptr, nullptr, nullptr};
        for (unsigned i = 0; i < arity; ++i) {
            fi[i] = cell.fanin[i];
            frow[i] = &laneArrival_[size_t{tpos_[fi[i]]} * 64];
        }
        while (t) {
            const unsigned l = __builtin_ctzll(t);
            const uint64_t bit = t & (~t + 1);
            t &= t - 1;
            double worst = 0.0;
            for (unsigned i = 0; i < arity; ++i)
                if (tp[fi[i]] & bit)
                    worst = std::max(worst, frow[i][l]);
            double arr = worst + d;
            // Dynamic slack pruning: once a toggle's arrival plus its
            // remaining static path cannot exceed the capture time, no
            // chain through it can be late — drop the lane bit so
            // downstream cells skip it, and let the pruning cascade.
            // The maximizing late chain satisfies arr + remaining >
            // captureTimePs at every cell, so faulty lanes keep exact
            // arrivals and every capture decision is unchanged.
            if (arr + rem <= captureTimePs) {
                togglePlane_[id] &= ~bit;
                continue;
            }
            row[l] = arr;
        }
    }
    for (unsigned l = 0; l < lanes; ++l) {
        const uint64_t bit = 1ULL << l;
        double worstOut = 0.0;
        for (size_t k = 0; k < outs_.size(); ++k) {
            NetId net = outs_[k];
            if (!(togglePlane_[net] & bit))
                continue;
            double arr = laneArrival_[size_t{tpos_[net]} * 64 + l];
            worstOut = std::max(worstOut, arr);
            // A toggled output's old value is the complement of its
            // new one: a late arrival flips the captured bit back.
            if (arr > captureTimePs)
                batch_.captured[k] ^= bit;
        }
        batch_.maxArrivalPs[l] = worstOut;
    }
    return batch_;
}

const std::vector<uint64_t> &
LaneDta::evalBatch(const std::vector<uint64_t> &cur)
{
    panic_if(cur.size() != nl_.numInputs(),
             "LaneDta: bad input plane count");
    size_t n = nl_.numCells();
    evalPlane_.resize(n);
    const auto &cells = nl_.cells();
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        switch (cell.kind) {
          case CellKind::Input:
            evalPlane_[id] = cur[id];
            break;
          case CellKind::Const0:
            evalPlane_[id] = 0;
            break;
          case CellKind::Const1:
            evalPlane_[id] = ~0ULL;
            break;
          default: {
            uint64_t a = cell.fanin[0] != invalidNet
                             ? evalPlane_[cell.fanin[0]] : 0;
            uint64_t b = cell.fanin[1] != invalidNet
                             ? evalPlane_[cell.fanin[1]] : 0;
            uint64_t c = cell.fanin[2] != invalidNet
                             ? evalPlane_[cell.fanin[2]] : 0;
            evalPlane_[id] = evalCellPlane(cell.kind, a, b, c);
            break;
          }
        }
    }
    evalOut_.resize(outs_.size());
    for (size_t k = 0; k < outs_.size(); ++k)
        evalOut_[k] = evalPlane_[outs_[k]];
    return evalOut_;
}

} // namespace tea::circuit
