#include "circuit/netlist.hh"

#include <algorithm>

#include "circuit/cell_index.hh"
#include "common/logging.hh"

namespace dtann {

NetId
Netlist::addNet()
{
    cells.reset();
    netFlags.push_back(0);
    return static_cast<NetId>(netFlags.size() - 1);
}

NetId
Netlist::addGate(GateKind kind, const std::vector<NetId> &ins)
{
    NetId out = addNet();
    addGateOnto(kind, ins, out);
    return out;
}

void
Netlist::addGateOnto(GateKind kind, const std::vector<NetId> &ins,
                     NetId out)
{
    int arity = gateArity(kind);
    dtann_assert(static_cast<int>(ins.size()) == arity,
                 "%s expects %d inputs, got %zu",
                 gateName(kind), arity, ins.size());
    dtann_assert(out < numNets(), "gate output uses unknown net");
    cells.reset();
    Gate g;
    g.kind = kind;
    g.group = currentGroup;
    maxGroup = std::max(maxGroup, currentGroup);
    for (int i = 0; i < 4; ++i)
        g.in[i] = i < arity ? ins[static_cast<size_t>(i)] : invalidNet;
    for (int i = 0; i < arity; ++i) {
        dtann_assert(g.in[i] < numNets(), "gate input uses unknown net");
        uint8_t &f = netFlags[g.in[i]];
        if (!(f & (netDriven | netReadEarly))) {
            f |= netReadEarly;
            earlyReads += f & netInput ? 0 : 1;
        }
    }
    g.out = out;
    netFlags[out] |= netDriven;
    gateList.push_back(g);
}

NetId
Netlist::constNet(bool value)
{
    NetId &cached = constNets[value ? 1 : 0];
    if (cached == invalidNet)
        cached = addGate(value ? GateKind::Const1 : GateKind::Const0, {});
    return cached;
}

void
Netlist::markInput(NetId net)
{
    dtann_assert(net < numNets(), "unknown net");
    cells.reset();
    inputList.push_back(net);
    uint8_t &f = netFlags[net];
    if ((f & (netReadEarly | netInput)) == netReadEarly)
        --earlyReads; // read early, but a primary input after all
    f |= netInput;
}

void
Netlist::markOutput(NetId net)
{
    dtann_assert(net < numNets(), "unknown net");
    cells.reset();
    outputList.push_back(net);
}

void
Netlist::indexCells()
{
    cells = std::make_shared<const CellIndex>(*this);
}

size_t
Netlist::transistorCount() const
{
    size_t total = 0;
    for (const Gate &g : gateList)
        total += static_cast<size_t>(gateTransistorCount(g.kind));
    return total;
}

int
Netlist::depth() const
{
    // Net depth: inputs are 0; a gate's output depth is
    // 1 + max(input depths), where a not-yet-driven input net (a
    // feedback edge) contributes 0.
    std::vector<int> net_depth(numNets(), 0);
    int max_depth = 0;
    for (const Gate &g : gateList) {
        int d = 0;
        for (int i = 0; i < g.arity(); ++i)
            d = std::max(d, net_depth[g.in[i]]);
        net_depth[g.out] = d + 1;
        max_depth = std::max(max_depth, d + 1);
    }
    return max_depth;
}

} // namespace dtann
