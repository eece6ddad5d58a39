#include "reference_cone.hh"

#include <algorithm>

#include "circuit/cell_index.hh"

namespace dtann {

namespace {

/** The gates a fault of @p faults sits on (with repeats). */
std::vector<uint32_t>
faultyGates(const FaultSet &faults)
{
    std::vector<uint32_t> gates;
    for (const auto &[gi, fn] : faults.overrides)
        gates.push_back(gi);
    for (uint32_t gi : faults.delayed)
        gates.push_back(gi);
    for (const StuckAtFault &f : faults.stuckAt)
        gates.push_back(f.gate);
    return gates;
}

} // namespace

ReferenceCone
referenceFaultCone(const Netlist &nl, const FaultSet &faults)
{
    ReferenceCone cone;
    if (faults.empty() || nl.hasFeedback() ||
        nl.inputs().size() > 64 || nl.outputs().size() > 64)
        return cone;

    size_t n_gates = nl.numGates();
    enum : uint8_t { coneNet = 1, supportNet = 2 };
    std::vector<uint8_t> net(nl.numNets(), 0);
    std::vector<uint8_t> inCone(n_gates, 0);
    for (uint32_t gi : faultyGates(faults))
        inCone[gi] = 1;

    // Forward: anything reading a cone net joins the cone.
    for (size_t gi = 0; gi < n_gates; ++gi) {
        const Gate &g = nl.gate(gi);
        for (int i = 0; i < g.arity() && !inCone[gi]; ++i)
            inCone[gi] = net[g.in[i]] & coneNet;
        if (inCone[gi]) {
            net[g.out] |= coneNet;
            ++cone.coneSize;
        }
    }

    // Backward: a gate whose output an active gate reads is active.
    for (size_t gi = n_gates; gi-- > 0;) {
        const Gate &g = nl.gate(gi);
        if (!inCone[gi] && !(net[g.out] & supportNet))
            continue;
        cone.activeGates.push_back(static_cast<uint32_t>(gi));
        for (int i = 0; i < g.arity(); ++i)
            net[g.in[i]] |= supportNet;
    }
    std::reverse(cone.activeGates.begin(), cone.activeGates.end());

    cone.valid = true;
    for (size_t o = 0; o < nl.outputs().size(); ++o)
        if (net[nl.outputs()[o]] & coneNet)
            cone.outputMask |= 1ull << o;
    return cone;
}

std::vector<uint32_t>
referencePrunedSteps(const std::vector<uint32_t> &active,
                     const FaultSet &faults, const Netlist &nl)
{
    const CellIndex *cells = nl.cellIndex();
    if (!cells)
        return active;
    std::vector<uint32_t> faulty;
    for (uint32_t gi : faultyGates(faults))
        faulty.push_back(nl.gate(gi).group);

    std::vector<uint32_t> steps;
    for (size_t k = 0; k < active.size();) {
        uint32_t gi = active[k];
        uint16_t group = nl.gate(gi).group;
        const Cell &c = cells->cell(group);
        if (!c.eligible ||
            std::find(faulty.begin(), faulty.end(), group) != faulty.end()) {
            steps.push_back(gi);
            ++k;
            continue;
        }
        steps.push_back(kCellStep | group);
        while (k < active.size() && active[k] < c.endGate)
            ++k;
    }
    return steps;
}

Netlist
bareCopy(const Netlist &nl)
{
    Netlist bare;
    for (size_t i = 0; i < nl.numNets(); ++i)
        bare.addNet();
    for (NetId net : nl.inputs())
        bare.markInput(net);
    for (size_t gi = 0; gi < nl.numGates(); ++gi) {
        const Gate &g = nl.gate(gi);
        bare.setGroup(g.group);
        bare.addGateOnto(g.kind, std::vector<NetId>(g.in, g.in + g.arity()),
                         g.out);
    }
    for (NetId net : nl.outputs())
        bare.markOutput(net);
    return bare;
}

GateFunction
flipped(const Netlist &nl, uint32_t gi, uint32_t entry)
{
    GateKind kind = nl.gate(gi).kind;
    int arity = gateArity(kind);
    uint32_t value = 0;
    for (uint32_t idx = 0; idx < (1u << arity); ++idx)
        value |= static_cast<uint32_t>(gateEval(kind, idx)) << idx;
    return GateFunction(arity, value ^ (1u << (entry % (1u << arity))), 0);
}

} // namespace dtann
