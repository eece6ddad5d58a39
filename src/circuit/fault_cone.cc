#include "circuit/fault_cone.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

FaultCone
computeFaultCone(const Netlist &nl, const FaultSet &faults)
{
    FaultCone cone;
    if (faults.empty() || nl.hasFeedback() ||
        nl.inputs().size() > 64 || nl.outputs().size() > 64)
        return cone;

    // Feedback-free gate order is topological, so the cone closes
    // in two linear passes over the gates.
    size_t n_gates = nl.numGates();
    enum : uint8_t { coneNet = 1, supportNet = 2 };
    std::vector<uint8_t> net(nl.numNets(), 0);

    // Seed: every gate whose behaviour a fault can alter.
    std::vector<uint8_t> inCone(n_gates, 0);
    size_t first_seed = n_gates;
    auto seed = [&](uint32_t gi) {
        dtann_assert(gi < n_gates, "fault on unknown gate %u", gi);
        inCone[gi] = 1;
        first_seed = std::min<size_t>(first_seed, gi);
    };
    for (const auto &[gi, fn] : faults.overrides)
        seed(gi);
    for (uint32_t gi : faults.delayed)
        seed(gi);
    for (const StuckAtFault &f : faults.stuckAt)
        seed(f.gate);

    // Forward closure: anything reading a cone net joins the cone.
    // No gate before the first seed reads a cone net.
    for (size_t gi = first_seed; gi < n_gates; ++gi) {
        const Gate &g = nl.gate(gi);
        for (int i = 0; i < g.arity() && !inCone[gi]; ++i)
            inCone[gi] = net[g.in[i]] & coneNet;
        if (inCone[gi]) {
            net[g.out] |= coneNet;
            ++cone.coneSize;
        }
    }

    // Backward closure: cone gates read clean support nets whose
    // drivers must still be simulated to have a value at all. Every
    // reader of a gate's output comes after it, so one descending
    // pass sees all of them first; it lists the active gates in
    // descending order.
    cone.activeGates.reserve(n_gates - first_seed);
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

} // namespace dtann
