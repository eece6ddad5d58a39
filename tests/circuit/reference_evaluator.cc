#include "reference_evaluator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

namespace {

/** Same relaxation sweep cap as Evaluator. */
constexpr int maxSweeps = 64;

} // namespace

ReferenceEvaluator::ReferenceEvaluator(const Netlist &netlist,
                                       FaultSet faults, CleanFn clean)
    : nl(netlist), faultSet(std::move(faults)),
      cleanFn(std::move(clean)),
      netVal(netlist.numNets(), 0),
      haveFaults(!this->faultSet.empty()),
      needsRelaxation(netlist.hasFeedback())
{
    if (cleanFn && haveFaults)
        cone = referenceFaultCone(nl, faultSet);
    size_t n = nl.numGates();
    if (haveFaults) {
        overridePtr.assign(n, nullptr);
        delayedFlag.assign(n, 0);
        delayStore.assign(n, 0);
        inputForce.assign(n, {-1, -1, -1, -1});
        outputForce.assign(n, -1);
        for (const auto &[gi, fn] : faultSet.overrides)
            overridePtr[gi] = &fn;
        for (uint32_t gi : faultSet.delayed)
            delayedFlag[gi] = 1;
        for (const StuckAtFault &f : faultSet.stuckAt) {
            if (f.input < 0)
                outputForce[f.gate] = f.value ? 1 : 0;
            else
                inputForce[f.gate][static_cast<size_t>(f.input)] =
                    f.value ? 1 : 0;
        }
    }
}

void
ReferenceEvaluator::reset()
{
    std::fill(netVal.begin(), netVal.end(), 0);
    std::fill(delayStore.begin(), delayStore.end(), 0);
}

void
ReferenceEvaluator::setInput(size_t index, bool value)
{
    netVal[nl.inputs()[index]] = value ? 1 : 0;
}

void
ReferenceEvaluator::setInputBits(uint64_t bits, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        netVal[nl.inputs()[i]] = (bits >> i) & 1;
}

uint32_t
ReferenceEvaluator::gateInputs(size_t gi) const
{
    const Gate &g = nl.gate(gi);
    uint32_t in = 0;
    int arity = g.arity();
    for (int i = 0; i < arity; ++i)
        in |= static_cast<uint32_t>(netVal[g.in[i]]) << i;
    if (haveFaults) {
        const auto &force = inputForce[gi];
        for (int i = 0; i < arity; ++i) {
            if (force[static_cast<size_t>(i)] >= 0) {
                in &= ~(1u << i);
                in |= static_cast<uint32_t>(
                    force[static_cast<size_t>(i)]) << i;
            }
        }
    }
    return in;
}

void
ReferenceEvaluator::evaluate()
{
    runSweeps(nullptr);
    latchDelayed();
}

void
ReferenceEvaluator::runSweeps(const std::vector<uint32_t> *active)
{
    size_t n = active ? active->size() : nl.numGates();
    oscillated = false;
    int sweep_cap = needsRelaxation ? maxSweeps : 1;
    for (sweeps = 0; sweeps < sweep_cap; ++sweeps) {
        bool changed = false;
        gateEvalCount += n;
        for (size_t idx = 0; idx < n; ++idx) {
            size_t gi = active ? (*active)[idx] : idx;
            const Gate &g = nl.gate(gi);
            uint8_t v;
            if (haveFaults && delayedFlag[gi]) {
                v = delayStore[gi];
            } else if (haveFaults && overridePtr[gi]) {
                LogicValue lv = overridePtr[gi]->eval(gateInputs(gi));
                if (lv == LogicValue::Mem)
                    continue;
                v = (lv == LogicValue::One) ? 1 : 0;
            } else {
                v = gateEval(g.kind, gateInputs(gi)) ? 1 : 0;
            }
            if (haveFaults && outputForce[gi] >= 0)
                v = static_cast<uint8_t>(outputForce[gi]);
            if (netVal[g.out] != v) {
                netVal[g.out] = v;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    if (needsRelaxation && sweeps == maxSweeps)
        oscillated = true;
}

void
ReferenceEvaluator::latchDelayed()
{
    if (!haveFaults)
        return;
    for (uint32_t gi : faultSet.delayed) {
        uint8_t pending;
        if (overridePtr[gi]) {
            LogicValue lv = overridePtr[gi]->eval(gateInputs(gi));
            if (lv == LogicValue::Mem)
                continue;
            pending = (lv == LogicValue::One) ? 1 : 0;
        } else {
            pending = gateEval(nl.gate(gi).kind, gateInputs(gi)) ? 1 : 0;
        }
        delayStore[gi] = pending;
    }
}

uint64_t
ReferenceEvaluator::outputBits(size_t count) const
{
    uint64_t bits = 0;
    for (size_t i = 0; i < count; ++i)
        bits |= static_cast<uint64_t>(netVal[nl.outputs()[i]]) << i;
    return bits;
}

uint64_t
ReferenceEvaluator::evaluateBits(uint64_t input_bits)
{
    setInputBits(input_bits, nl.inputs().size());
    size_t n_out = std::min<size_t>(nl.outputs().size(), 64);
    if (!cone.valid) {
        evaluate();
        return outputBits(n_out);
    }
    runSweeps(&cone.activeGates);
    latchDelayed();
    uint64_t sim = outputBits(n_out);
    uint64_t clean = cleanFn(input_bits);
    uint64_t bits = (clean & ~cone.outputMask) | (sim & cone.outputMask);
    for (size_t o = 0; o < n_out; ++o) {
        if (!(cone.outputMask >> o & 1))
            netVal[nl.outputs()[o]] = (bits >> o) & 1;
    }
    return bits;
}

} // namespace dtann
