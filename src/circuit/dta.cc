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

} // namespace tea::circuit
