#include "circuit/fault_cone.hh"

#include <algorithm>
#include <ranges>

#include "common/logging.hh"

namespace dtann {

FaultCone
computeFaultCone(const Netlist &nl, const FaultSet &faults)
{
    FaultCone cone;
    if (faults.empty() || nl.hasFeedback() ||
        nl.inputs().size() > 64 || nl.outputs().size() > 64)
        return cone;

    // Seeds: every gate whose behaviour a fault can alter.
    size_t n_gates = nl.numGates();
    std::vector<uint32_t> seeds = faults.gates();
    dtann_assert(seeds.back() < n_gates, "fault on unknown gate %u",
                 seeds.back());

    // The walk goes over CellIndex::units() in gate order: a clean
    // eligible cell closes as one unit through its reach table, and
    // a faulty cell is walked gate by gate. A netlist without an
    // index is one ineligible cell, so every gate is a unit.
    const CellIndex *index = nl.cellIndex();
    size_t n_units = index ? index->units().size() : n_gates;
    auto unitAt = [&](size_t k) {
        return index ? index->units()[k] : static_cast<uint32_t>(k);
    };
    std::vector<uint8_t> faulty(index ? index->numCells() : 0, 0);
    if (index)
        for (uint32_t gi : seeds)
            faulty[nl.gate(gi).group] = 1;

    // One flag byte per net: a cone net, and a support net (read by
    // an active gate). A gate is in the cone exactly when its
    // output is a cone net.
    enum : uint8_t { coneNet = 1, supportNet = 2 };
    std::vector<uint8_t> net(nl.numNets(), 0);
    auto coneInputs = [&](const Cell &c) {
        uint32_t mask = 0;
        for (int i = 0; i < c.numIn; ++i)
            mask |= static_cast<uint32_t>(net[c.in[i]] & coneNet) << i;
        return mask;
    };

    // Forward closure: anything reading a cone net joins the cone.
    // No gate before the first seed reads a cone net, so the walk
    // starts at the unit holding it; every seed lies in a faulty
    // cell, so the gate walk meets each one in order.
    size_t next_seed = 0;
    auto gateForward = [&](uint32_t gi) {
        const Gate &g = nl.gate(gi);
        bool in = next_seed < seeds.size() && seeds[next_seed] == gi;
        next_seed += in;
        for (int i = 0; i < g.arity() && !in; ++i)
            in = net[g.in[i]] & coneNet;
        if (in) {
            net[g.out] |= coneNet;
            ++cone.coneSize;
        }
    };
    auto unitEnd = [&](uint32_t u) {
        return u & kCellStep ? index->cell(u & ~kCellStep).endGate : u + 1;
    };
    size_t first = *std::ranges::partition_point(
        std::views::iota(size_t{0}, n_units),
        [&](size_t k) { return unitEnd(unitAt(k)) <= seeds.front(); });
    for (size_t k = first; k < n_units; ++k) {
        uint32_t u = unitAt(k);
        if (!(u & kCellStep)) {
            gateForward(u);
            continue;
        }
        const Cell &c = index->cell(u & ~kCellStep);
        if (faulty[u & ~kCellStep]) {
            for (uint32_t gi = c.firstGate; gi < c.endGate; ++gi)
                gateForward(gi);
            continue;
        }
        const CellReach &r = index->reach(c, coneInputs(c), 0);
        cone.coneSize += r.coneGates;
        for (int o = 0; o < c.numOut; ++o)
            net[c.out[o]] |= (r.coneOut >> o & 1) * coneNet;
    }

    // Backward closure: cone gates read clean support nets whose
    // drivers must still be simulated to have a value at all. Every
    // reader of a net comes after its driver, so one descending
    // pass sees all of them first; it emits the steps in
    // descending order.
    auto gateBackward = [&](uint32_t gi) {
        const Gate &g = nl.gate(gi);
        if (!net[g.out])
            return;
        cone.steps.push_back(gi);
        ++cone.activeCount;
        for (int i = 0; i < g.arity(); ++i)
            net[g.in[i]] |= supportNet;
    };
    cone.steps.reserve(n_units);
    for (size_t k = n_units; k-- > 0;) {
        uint32_t u = unitAt(k);
        if (!(u & kCellStep)) {
            gateBackward(u);
            continue;
        }
        const Cell &c = index->cell(u & ~kCellStep);
        if (faulty[u & ~kCellStep]) {
            for (uint32_t gi = c.endGate; gi-- > c.firstGate;)
                gateBackward(gi);
            continue;
        }
        uint32_t need = 0;
        for (int o = 0; o < c.numOut; ++o)
            need |= static_cast<uint32_t>(net[c.out[o]] >> 1 & 1) << o;
        const CellReach &r = index->reach(c, coneInputs(c), need);
        if (!r.active)
            continue;
        cone.steps.push_back(u);
        cone.activeCount += r.active;
        for (int i = 0; i < c.numIn; ++i)
            net[c.in[i]] |= (r.needIn >> i & 1) * supportNet;
    }
    std::reverse(cone.steps.begin(), cone.steps.end());

    cone.valid = true;
    for (size_t o = 0; o < nl.outputs().size(); ++o)
        if (net[nl.outputs()[o]] & coneNet)
            cone.outputMask |= 1ull << o;
    return cone;
}

} // namespace dtann
