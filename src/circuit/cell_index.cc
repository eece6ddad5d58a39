#include "circuit/cell_index.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

namespace {

constexpr uint32_t noGate = UINT32_MAX;

/** @p table (16 entries) in algebraic normal form (Moebius
 *  transform over the 4 index bits). */
uint16_t
algebraicNormalForm(uint16_t table)
{
    uint32_t a = table;
    for (uint32_t i = 0; i < 4; ++i)
        for (uint32_t m = 0; m < 16; ++m)
            if (m >> i & 1)
                a ^= (a >> (m ^ (1u << i)) & 1) << m;
    return static_cast<uint16_t>(a);
}

/** Tabulate the outputs of eligible cell @p c from its gates. */
void
tabulate(const Netlist &nl, const std::vector<uint32_t> &driver, Cell &c)
{
    std::vector<uint8_t> val(c.numGates);
    // Index bits at and above numIn are cleared, so each pattern
    // of the used bits fills every entry that maps to it.
    for (uint32_t idx = 0; idx < 16; ++idx) {
        uint32_t used = idx & ((1u << c.numIn) - 1);
        for (uint32_t gi = c.firstGate; gi < c.endGate; ++gi) {
            const Gate &g = nl.gate(gi);
            uint32_t bits = 0;
            for (int p = 0; p < g.arity(); ++p) {
                NetId net = g.in[p];
                uint32_t d = driver[net];
                uint32_t v;
                if (d != noGate && d >= c.firstGate && d < c.endGate) {
                    v = val[d - c.firstGate];
                } else {
                    int k = 0;
                    while (c.in[k] != net)
                        ++k;
                    v = used >> k & 1;
                }
                bits |= v << p;
            }
            val[gi - c.firstGate] = gateTable(g.kind) >> bits & 1;
        }
        for (int o = 0; o < c.numOut; ++o)
            c.table[o] |= static_cast<uint16_t>(
                val[driver[c.out[o]] - c.firstGate] << idx);
    }
    for (int o = 0; o < c.numOut; ++o)
        c.anf[o] = algebraicNormalForm(c.table[o]);
}

} // namespace

CellIndex::CellIndex(const Netlist &nl)
    : cells(nl.numGroups())
{
    size_t n = nl.numGates();
    std::vector<uint32_t> driver(nl.numNets(), noGate);
    for (uint32_t gi = 0; gi < n; ++gi)
        driver[nl.gate(gi).out] = gi;

    // outside[net]: read by a group other than its driver's, or a
    // primary output. lastReader[net]: the last group that counted
    // the net as an external input (exact for contiguous groups,
    // the only ones that can be eligible).
    std::vector<uint8_t> outside(nl.numNets(), 0);
    for (NetId net : nl.outputs())
        outside[net] = 1;
    std::vector<uint32_t> lastReader(nl.numNets(), noGate);
    for (uint32_t gi = 0; gi < n; ++gi) {
        const Gate &g = nl.gate(gi);
        Cell &c = cells[g.group];
        if (c.numGates++ == 0)
            c.firstGate = gi;
        c.endGate = gi + 1;
        for (int p = 0; p < g.arity(); ++p) {
            NetId net = g.in[p];
            uint32_t d = driver[net];
            if (d != noGate && d >= gi)
                c.feedback = true;
            if (d != noGate && nl.gate(d).group == g.group)
                continue;
            if (d != noGate)
                outside[net] = 1;
            if (lastReader[net] == g.group)
                continue;
            lastReader[net] = g.group;
            if (c.numIn < 4)
                c.in[c.numIn] = net;
            ++c.numIn;
        }
    }
    for (uint32_t gi = 0; gi < n; ++gi) {
        const Gate &g = nl.gate(gi);
        if (!outside[g.out])
            continue;
        Cell &c = cells[g.group];
        if (c.numOut < 2)
            c.out[c.numOut] = g.out;
        ++c.numOut;
    }
    for (Cell &c : cells) {
        c.eligible = c.contiguous() && !c.feedback && c.numIn <= 4 &&
            c.numOut <= 2;
        if (c.eligible)
            tabulate(nl, driver, c);
    }

    // Fault sites per group (gates with transistors), laid out flat
    // by a counting sort; groups without any are dropped.
    size_t n_groups = cells.size();
    std::vector<uint32_t> offset(n_groups + 1, 0);
    for (uint32_t gi = 0; gi < n; ++gi)
        if (gateTransistorCount(nl.gate(gi).kind) > 0)
            ++offset[nl.gate(gi).group + 1u];
    for (size_t t = 0; t < n_groups; ++t)
        offset[t + 1] += offset[t];
    siteGates.resize(offset[n_groups]);
    std::vector<uint32_t> fill(offset.begin(), offset.end() - 1);
    for (uint32_t gi = 0; gi < n; ++gi)
        if (gateTransistorCount(nl.gate(gi).kind) > 0)
            siteGates[fill[nl.gate(gi).group]++] = gi;
    for (size_t t = 0; t < n_groups; ++t)
        if (offset[t] != offset[t + 1])
            siteStart.push_back(offset[t]);
    siteStart.push_back(offset[n_groups]);
}

std::vector<uint32_t>
CellIndex::prunedSteps(const std::vector<uint32_t> &active,
                       const FaultSet &faults, const Netlist &nl) const
{
    std::vector<uint32_t> faulty;
    auto mark = [&](uint32_t gi) {
        dtann_assert(gi < nl.numGates(), "fault on unknown gate %u", gi);
        faulty.push_back(nl.gate(gi).group);
    };
    for (const auto &[gi, fn] : faults.overrides)
        mark(gi);
    for (uint32_t gi : faults.delayed)
        mark(gi);
    for (const StuckAtFault &f : faults.stuckAt)
        mark(f.gate);

    std::vector<uint32_t> steps;
    steps.reserve(active.size());
    for (size_t k = 0; k < active.size();) {
        uint32_t gi = active[k];
        uint16_t group = nl.gate(gi).group;
        const Cell &c = cells[group];
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

} // namespace dtann
