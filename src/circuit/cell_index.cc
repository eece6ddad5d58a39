#include "circuit/cell_index.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"

namespace dtann {

namespace {

constexpr uint32_t noGate = UINT32_MAX;

/** A pin source naming external input k: kExternal | k. */
constexpr uint32_t kExternal = 0x100;

/**
 * Where each input pin of eligible cell @p c's gates reads from,
 * 4 entries per gate: the cell gate that drives the net (its offset
 * from firstGate), or external input k as kExternal | k.
 */
std::vector<uint32_t>
pinSources(const Netlist &nl, const std::vector<uint32_t> &driver,
           const Cell &c)
{
    std::vector<uint32_t> src(c.numGates * 4, 0);
    for (uint32_t gi = c.firstGate; gi < c.endGate; ++gi) {
        const Gate &g = nl.gate(gi);
        for (int p = 0; p < g.arity(); ++p) {
            NetId net = g.in[p];
            uint32_t d = driver[net];
            uint32_t &s = src[(gi - c.firstGate) * 4 + p];
            if (d != noGate && d >= c.firstGate && d < c.endGate) {
                s = d - c.firstGate;
            } else {
                uint32_t k = 0;
                while (c.in[k] != net)
                    ++k;
                s = kExternal | k;
            }
        }
    }
    return src;
}

/** Tabulate the outputs of eligible cell @p c from its gates. */
void
tabulate(const Netlist &nl, const std::vector<uint32_t> &driver,
         const std::vector<uint32_t> &src, Cell &c)
{
    std::vector<uint8_t> val(c.numGates);
    // Index bits at and above numIn are cleared, so each pattern
    // of the used bits fills every entry that maps to it.
    for (uint32_t idx = 0; idx < 16; ++idx) {
        uint32_t used = idx & ((1u << c.numIn) - 1);
        for (uint32_t k = 0; k < c.numGates; ++k) {
            const Gate &g = nl.gate(c.firstGate + k);
            uint32_t bits = 0;
            for (int p = 0; p < g.arity(); ++p) {
                uint32_t s = src[k * 4 + p];
                uint32_t v = s & kExternal ? used >> (s & 3) & 1 : val[s];
                bits |= v << p;
            }
            val[k] = gateTable(g.kind) >> bits & 1;
        }
        for (int o = 0; o < c.numOut; ++o)
            c.table[o] |= static_cast<uint16_t>(
                val[driver[c.out[o]] - c.firstGate] << idx);
    }
}

/**
 * Fill the 64 reach entries @p reach of eligible cell @p c: the
 * gate-level cone closure (computeFaultCone()) run inside the cell
 * for every cone-input and needed-output mask. A gate is in the
 * cone when it reads a cone net; it is active when it is in the
 * cone or an active gate or a needed output reads it.
 */
void
tabulateReach(const Netlist &nl, const std::vector<uint32_t> &driver,
              const std::vector<uint32_t> &src, const Cell &c,
              CellReach *reach)
{
    uint32_t n = c.numGates;
    dtann_assert(n <= UINT16_MAX, "cell of %u gates", n);
    uint32_t out_gate[2] = {0, 0};
    for (int o = 0; o < c.numOut; ++o)
        out_gate[o] = driver[c.out[o]] - c.firstGate;
    std::vector<uint8_t> cone(n), need(n);
    for (uint32_t cone_in = 0; cone_in < 16; ++cone_in) {
        CellReach base;
        for (uint32_t k = 0; k < n; ++k) {
            uint32_t in = 0;
            for (int p = 0; p < nl.gate(c.firstGate + k).arity(); ++p) {
                uint32_t s = src[k * 4 + p];
                in |= s & kExternal ? cone_in >> (s & 3) & 1 : cone[s];
            }
            cone[k] = static_cast<uint8_t>(in);
            base.coneGates = static_cast<uint16_t>(base.coneGates + in);
        }
        for (int o = 0; o < c.numOut; ++o)
            base.coneOut |= static_cast<uint8_t>(cone[out_gate[o]] << o);
        for (uint32_t need_out = 0; need_out < 4; ++need_out) {
            CellReach &e = reach[cone_in * 4 + need_out];
            e = base;
            std::fill(need.begin(), need.end(), 0);
            for (int o = 0; o < c.numOut; ++o)
                need[out_gate[o]] |= need_out >> o & 1;
            for (uint32_t k = n; k-- > 0;) {
                if (!cone[k] && !need[k])
                    continue;
                ++e.active;
                for (int p = 0; p < nl.gate(c.firstGate + k).arity(); ++p) {
                    uint32_t s = src[k * 4 + p];
                    if (s & kExternal)
                        e.needIn |= static_cast<uint8_t>(1u << (s & 3));
                    else
                        need[s] = 1;
                }
            }
        }
    }
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
    // A cell's tables are a function of its shape: gate kinds,
    // pin sources and output gates. Cells of one shape share them,
    // so each shape is tabulated once.
    std::map<std::vector<uint32_t>, const Cell *> shapes;
    CellReach reach[64];
    for (Cell &c : cells) {
        c.eligible = c.contiguous() && !c.feedback && c.numIn <= 4 &&
            c.numOut <= 2;
        if (!c.eligible)
            continue;
        std::vector<uint32_t> src = pinSources(nl, driver, c);
        std::vector<uint32_t> shape = {c.numGates, c.numIn, c.numOut};
        for (int o = 0; o < c.numOut; ++o)
            shape.push_back(driver[c.out[o]] - c.firstGate);
        for (uint32_t gi = c.firstGate; gi < c.endGate; ++gi)
            shape.push_back(static_cast<uint32_t>(nl.gate(gi).kind));
        shape.insert(shape.end(), src.begin(), src.end());
        auto [it, fresh] = shapes.emplace(std::move(shape), &c);
        if (!fresh) {
            const Cell &same = *it->second;
            std::copy(same.table, same.table + 2, c.table);
            c.reach = same.reach;
            continue;
        }
        tabulate(nl, driver, src, c);
        tabulateReach(nl, driver, src, c, reach);
        c.reach = static_cast<uint32_t>(reaches.size() / 64);
        reaches.insert(reaches.end(), reach, reach + 64);
    }

    for (uint32_t gi = 0; gi < n;) {
        uint16_t group = nl.gate(gi).group;
        if (cells[group].eligible) {
            unitList.push_back(kCellStep | group);
            gi = cells[group].endGate;
        } else {
            unitList.push_back(gi++);
        }
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

} // namespace dtann
