#include "circuit/evaluator.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "circuit/cell_index.hh"
#include "common/logging.hh"

namespace dtann {

namespace {

/** Relaxation sweep cap; oscillating faulty feedback stops here. */
constexpr int maxSweeps = 64;

/** Byte b spread to eight 0/1 bytes, bit i to byte i. */
constexpr auto kSpreadBits = [] {
    std::array<std::array<uint8_t, 8>, 256> t{};
    for (size_t b = 0; b < 256; ++b)
        for (size_t i = 0; i < 8; ++i)
            t[b][i] = (b >> i) & 1;
    return t;
}();

/** Truth-table index of the input nets @p in under @p net. */
inline uint32_t
tableIndex(const uint8_t *net, const NetId *in)
{
    return net[in[0]] | net[in[1]] << 1 | net[in[2]] << 2 |
        net[in[3]] << 3;
}

} // namespace

Evaluator::Evaluator(const Netlist &netlist, FaultSet faults,
                     CleanFn clean, std::shared_ptr<const FaultCone> cone_in)
    : nl(netlist), faultSet(std::move(faults)),
      cleanFn(std::move(clean)),
      // Nets, the constant-zero padding net, one store per delay,
      // the sink net.
      netVal(netlist.numNets() + 2 + faultSet.delayed.size(), 0),
      needsRelaxation(netlist.hasFeedback())
{
    const std::vector<NetId> &in = nl.inputs();
    for (size_t i = 1; i < in.size(); ++i)
        inputsContiguous &= in[i] == in[i - 1] + 1;
    if (cleanFn && !faultSet.empty())
        cone = cone_in ? std::move(cone_in)
                       : std::make_shared<const FaultCone>(
                             computeFaultCone(nl, faultSet));
}

const std::vector<TableOp> &
Evaluator::program(bool full)
{
    // Folded on first use: a simulation that only ever runs on the
    // wide-lane batch path never pays for a scalar program.
    bool pruned = conePruned() && !full;
    std::vector<TableOp> &ops = conePruned() && full ? fullProg : prog;
    if (ops.empty()) {
        // Either program covers every delayed gate (cone seeds), so
        // the first one folded fills the latch tables.
        const std::vector<uint32_t> *steps = pruned ? &cone->steps : nullptr;
        ops.reserve(steps ? steps->size() : nl.numGates());
        foldTableOps(
            nl, faultSet, steps,
            [&](const TableOp &op) { ops.push_back(op); },
            pending.empty() ? &pending : nullptr);
        if (pruned) {
            // State nets in fold order, before the split reorders
            // (stateBits() packs them).
            for (const TableOp &op : ops)
                if (op.mem)
                    stateNetList.push_back(op.out[0]);
            for (const TableOp &op : pending)
                stateNetList.push_back(op.out[0]);
            splitOnActivation();
        }
    }
    return ops;
}

void
Evaluator::splitOnActivation()
{
    // The faulty gates' ops join the prefix, each with its check. A
    // delayed gate's op reads its store net, but its pending table
    // and its check read g.in, so its closure starts from there.
    const NetId zero_net = static_cast<NetId>(nl.numNets());
    const NetId sink = static_cast<NetId>(netVal.size() - 1);
    std::vector<uint32_t> faulty = faultSet.gates();
    // Exact reserves here and for the prefix below: vectors grown
    // step by step in every faulty sim's fold fragment the heap
    // (0.06-0.1 MB more peak RSS on fig10-inference).
    checks.reserve(faulty.size());
    // Per-net needed flags, then per-op prefix flags.
    std::vector<uint8_t> flags(netVal.size() + prog.size(), 0);
    uint8_t *needed = flags.data();
    uint8_t *inPrefix = needed + netVal.size();
    size_t last = 0;
    for (size_t k = 0; k < prog.size(); ++k) {
        uint32_t step = cone->steps[k];
        if (step & kCellStep ||
            !std::binary_search(faulty.begin(), faulty.end(), step))
            continue;
        const Gate &g = nl.gate(step);
        TableOp check{{zero_net, zero_net, zero_net, zero_net},
                      {g.out, sink}, {gateTable(g.kind), 0}, 0};
        for (int i = 0; i < g.arity(); ++i) {
            check.in[i] = g.in[i];
            needed[g.in[i]] = 1;
        }
        checks.push_back(check);
        inPrefix[k] = 1;
        last = k;
    }

    // One descending pass from the last faulty op (no op after it
    // drives a net it reads): the program is in topological order,
    // so every reader of a net is visited before its driver, and an
    // op joins when one of its outputs is needed. Marking a faulty
    // op's own inputs too is harmless: they are g.in, or a store net
    // that no op drives.
    for (size_t k = last + 1; k-- > 0;) {
        const TableOp &op = prog[k];
        if (inPrefix[k] || needed[op.out[0]] || needed[op.out[1]]) {
            inPrefix[k] = 1;
            for (NetId in : op.in)
                needed[in] = 1;
        }
    }

    // Stable partition of [0, last], holding only the (small) prefix
    // aside: the rest slides up to end at last, in order, and the
    // prefix goes in front. The ops after last stay where they are.
    std::vector<TableOp> prefix;
    prefix.reserve(static_cast<size_t>(
        std::count(inPrefix, inPrefix + last + 1, 1)));
    size_t to = last + 1;
    for (size_t k = last + 1; k-- > 0;) {
        if (inPrefix[k])
            prefix.push_back(prog[k]);
        else
            prog[--to] = prog[k];
    }
    prefixLen = prefix.size();
    std::copy(prefix.rbegin(), prefix.rend(), prog.begin());
}

size_t
Evaluator::programGates(bool full) const
{
    return conePruned() && !full ? cone->activeCount : nl.numGates();
}

TableFold::TableFold(const Netlist &netlist, const FaultSet &faults)
    : zeroNet(static_cast<NetId>(netlist.numNets())),
      sink(zeroNet + 1 + static_cast<NetId>(faults.delayed.size())),
      nl(netlist), faulty(faults.gates()), gateFaults(faulty.size())
{
    size_t n = nl.numGates();
    // Each faulty gate's faults, flat at its position in faulty.
    auto at = [&](uint32_t gi) -> GateFaults & {
        auto it = std::lower_bound(faulty.begin(), faulty.end(), gi);
        return gateFaults[static_cast<size_t>(it - faulty.begin())];
    };
    for (const auto &[gi, fn] : faults.overrides) {
        dtann_assert(gi < n, "override on unknown gate %u", gi);
        dtann_assert(fn.numInputs() == nl.gate(gi).arity(),
                     "override arity mismatch on gate %u", gi);
        at(gi).override = &fn;
    }
    NetId store = zeroNet;
    for (uint32_t gi : faults.delayed) {
        dtann_assert(gi < n, "delay fault on unknown gate %u", gi);
        at(gi).store = ++store;
    }
    for (const StuckAtFault &f : faults.stuckAt) {
        dtann_assert(f.gate < n, "stuck-at on unknown gate %u", f.gate);
        GateFaults &gf = at(f.gate);
        if (f.input < 0) {
            gf.outputForce = f.value ? 1 : 0;
        } else {
            dtann_assert(f.input < nl.gate(f.gate).arity(),
                         "stuck-at input index out of range");
            uint32_t bit = 1u << f.input;
            gf.forceMask |= bit;
            gf.forceBits = (gf.forceBits & ~bit) | (f.value ? bit : 0);
        }
    }
}

TableOp
TableFold::faultyOp(uint32_t gi, const GateFaults &gf,
                    std::vector<TableOp> *pending) const
{
    const Gate &g = nl.gate(gi);
    TableOp op{{zeroNet, zeroNet, zeroNet, zeroNet}, {g.out, sink},
               {0, 0}, 0};
    int arity = g.arity();
    for (int i = 0; i < arity; ++i)
        op.in[i] = g.in[i];

    // Input forces first, then the override (or the clean kind): the
    // un-forced table a delayed gate latches from.
    uint32_t used = (1u << arity) - 1;
    for (uint32_t idx = 0; idx < 16; ++idx) {
        uint32_t in = ((idx & used) & ~gf.forceMask) | gf.forceBits;
        LogicValue lv = gf.override ? gf.override->eval(in)
            : gateEval(g.kind, in) ? LogicValue::One
                                   : LogicValue::Zero;
        if (lv == LogicValue::Mem)
            op.mem |= static_cast<uint16_t>(1u << idx);
        else if (lv == LogicValue::One)
            op.value[0] |= static_cast<uint16_t>(1u << idx);
    }

    if (gf.store != invalidNet) {
        // The gate drives its stored net (index bit 0) this round;
        // its un-forced table latches the next stored value after
        // the sweeps.
        if (pending) {
            pending->push_back(op);
            pending->back().out[0] = gf.store;
        }
        op = TableOp{{gf.store, zeroNet, zeroNet, zeroNet}, {g.out, sink},
                     {0xaaaa, 0}, 0};
    }
    // The output force overrides every non-MEM entry; a MEM entry
    // keeps the previous value and skips the force.
    if (gf.outputForce >= 0)
        op.value[0] = gf.outputForce ? 0xffff : 0;
    return op;
}

void
Evaluator::reset()
{
    std::fill(netVal.begin(), netVal.end(), 0);
}

void
Evaluator::setInput(size_t index, bool value)
{
    dtann_assert(index < nl.inputs().size(), "input index out of range");
    netVal[nl.inputs()[index]] = value ? 1 : 0;
}

void
Evaluator::setInputBits(uint64_t bits, size_t count)
{
    setInputRange(0, count, bits);
}

void
Evaluator::setInputRange(size_t offset, size_t width, uint64_t bits)
{
    dtann_assert(offset + width <= nl.inputs().size(),
                 "input range out of bounds");
    const NetId *in = nl.inputs().data() + offset;
    if (!inputsContiguous) {
        for (size_t i = 0; i < width; ++i)
            netVal[in[i]] = (bits >> i) & 1;
        return;
    }
    // Builders declare the input bus first, so its nets are
    // consecutive: spread the word a byte at a time.
    uint8_t *net = width ? netVal.data() + in[0] : nullptr;
    size_t i = 0;
    for (; i + 8 <= width; i += 8)
        std::memcpy(net + i, kSpreadBits[(bits >> i) & 0xff].data(), 8);
    for (; i < width; ++i)
        net[i] = (bits >> i) & 1;
}

void
Evaluator::evaluate()
{
    runSweeps(program(true), programGates(true));
    latchDelayed();
}

void
Evaluator::runSweeps(const std::vector<TableOp> &ops, size_t gates)
{
    oscillated = false;
    uint8_t *net = netVal.data();
    // Gate ops only (the full program; a pruned one goes through
    // sweepPruned()). Feedback-free netlists settle in a single
    // topological sweep (builders emit gates in dependency order);
    // MEM entries read the previous evaluation's value, which is
    // exactly what the floating node held.
    int sweep_cap = needsRelaxation ? maxSweeps : 1;
    for (sweeps = 0; sweeps < sweep_cap; ++sweeps) {
        uint8_t changed = 0;
        gateEvalCount += gates;
        for (const TableOp &op : ops) {
            uint32_t idx = tableIndex(net, op.in);
            if (op.mem >> idx & 1)
                continue; // Floating output: keep previous value.
            uint8_t v = op.value[0] >> idx & 1;
            changed |= net[op.out[0]] ^ v;
            net[op.out[0]] = v;
        }
        if (!changed)
            break;
    }
    if (needsRelaxation && sweeps == maxSweeps)
        oscillated = true;
}

void
Evaluator::sweepPruned(const TableOp *first, const TableOp *last)
{
    // The cone exists only on feedback-free netlists, so one
    // topological sweep settles: every net an op reads is an input
    // or written earlier in the sweep, or a MEM op's own output,
    // which keeps the previous call's value.
    uint8_t *net = netVal.data();
    for (const TableOp *op = first; op != last; ++op) {
        uint32_t idx = tableIndex(net, op->in);
        if (op->mem >> idx & 1)
            continue; // Floating output: keep previous value.
        net[op->out[0]] = op->value[0] >> idx & 1;
        net[op->out[1]] = op->value[1] >> idx & 1;
    }
}

bool
Evaluator::faultActivated() const
{
    const uint8_t *net = netVal.data();
    for (const TableOp &c : checks)
        if (net[c.out[0]] != (c.value[0] >> tableIndex(net, c.in) & 1))
            return true;
    return false;
}

void
Evaluator::latchDelayed()
{
    // Latch new pending values of delayed gates for the next round;
    // a MEM entry keeps the old stored value.
    uint8_t *net = netVal.data();
    for (const TableOp &op : pending) {
        uint32_t idx = tableIndex(net, op.in);
        if (!(op.mem >> idx & 1))
            net[op.out[0]] = op.value[0] >> idx & 1;
    }
}

const std::vector<NetId> &
Evaluator::stateNets()
{
    if (conePruned())
        program(false);
    return stateNetList;
}

uint64_t
Evaluator::stateBits() const
{
    dtann_assert(stateNetList.size() <= 64, "more than 64 state nets");
    uint64_t bits = 0;
    for (size_t i = 0; i < stateNetList.size(); ++i)
        bits |= static_cast<uint64_t>(netVal[stateNetList[i]]) << i;
    return bits;
}

void
Evaluator::replayEvaluate(const uint8_t *next, int sweeps_run,
                          bool oscillated_run, uint64_t gate_evals)
{
    std::copy(next, next + netVal.size(), netVal.begin());
    sweeps = sweeps_run;
    oscillated = oscillated_run;
    gateEvalCount += gate_evals;
}

bool
Evaluator::output(size_t index) const
{
    dtann_assert(index < nl.outputs().size(), "output index out of range");
    return netVal[nl.outputs()[index]] != 0;
}

uint64_t
Evaluator::outputBits(size_t count) const
{
    return outputRange(0, count);
}

uint64_t
Evaluator::outputRange(size_t offset, size_t width) const
{
    dtann_assert(offset + width <= nl.outputs().size(),
                 "output range out of bounds");
    dtann_assert(width <= 64, "at most 64 bits per read");
    uint64_t bits = 0;
    for (size_t i = 0; i < width; ++i)
        bits |= static_cast<uint64_t>(netVal[nl.outputs()[offset + i]]) << i;
    return bits;
}

uint64_t
Evaluator::evaluateBits(uint64_t input_bits)
{
    setInputBits(input_bits, nl.inputs().size());
    size_t n_out = std::min<size_t>(nl.outputs().size(), 64);
    if (!conePruned()) {
        evaluate();
        return outputBits(n_out);
    }

    // Pruned path: only the fault cone (plus its fan-in support) is
    // simulated; every output outside the cone is bit-identical to
    // the clean operator, so those bits come from the native model.
    // The cone is only valid for feedback-free netlists, where all
    // fault semantics (MEM retention, delayed outputs, stuck-ats)
    // depend solely on the active gates' nets, which persist across
    // calls exactly as in the full sweep.
    const std::vector<TableOp> &ops = program(false);
    const TableOp *rest = ops.data() + prefixLen;
    sweepPruned(ops.data(), rest);
    latchDelayed();
    sweeps = 1;
    oscillated = false;
    gateEvalCount += programGates(false);
    uint64_t clean = cleanFn(input_bits);
    if (!faultActivated()) {
        // Every faulty gate drives its clean value, so every net
        // downstream is clean: the prefix wrote the state nets, and
        // the rest's nets stay stale until an activated call or a
        // full sweep rewrites them.
        for (size_t o = 0; o < n_out; ++o)
            netVal[nl.outputs()[o]] = (clean >> o) & 1;
        return clean;
    }
    ++activatedCount;
    sweepPruned(rest, ops.data() + ops.size());
    uint64_t sim = outputBits(n_out);
    uint64_t mask = cone->outputMask;
    uint64_t bits = (clean & ~mask) | (sim & mask);
    // Keep granular output() reads consistent: write the clean bits
    // back into the output nets the pruned sweep never touched.
    for (size_t o = 0; o < n_out; ++o) {
        if (!(mask >> o & 1))
            netVal[nl.outputs()[o]] = (bits >> o) & 1;
    }
    return bits;
}

} // namespace dtann
