/**
 * @file
 * The bit-cell index against an independent oracle: for every
 * operator netlist under both full-adder styles, each group's gate
 * range, external inputs and outputs and eligibility are re-derived
 * here by brute force, and each eligible group's tables are
 * tabulated straight from gateEval() over a net-value map. Also:
 * hand-built netlists carry no index, edits drop it, and the fault
 * sites per group match a plain scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "ann/sigmoid.hh"
#include "circuit/cell_index.hh"
#include "rtl/adder.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"
#include "transistor/switch_network.hh"

namespace dtann {
namespace {

/** Every operator netlist the index must describe. */
std::vector<std::pair<std::string, Netlist>>
operatorNetlistsUnderTest()
{
    std::vector<std::pair<std::string, Netlist>> out;
    for (FaStyle s : {FaStyle::Nand9, FaStyle::Mirror}) {
        std::string tag = std::string("/") + faStyleName(s);
        out.emplace_back("multiplier" + tag, buildMultiplierSigned(16, s));
        out.emplace_back("adder" + tag, buildRippleAdder(24, s, false));
        out.emplace_back("sigmoid" + tag,
                         buildSigmoidUnit(logisticPwlTable(), s));
        out.emplace_back("carry-select" + tag,
                         buildCarrySelectAdder(24, 4, s, true));
    }
    out.emplace_back("latch", buildLatchRegister(16));
    return out;
}

/** A group re-derived gate by gate, sharing nothing with the index. */
struct OracleCell
{
    std::vector<uint32_t> gates;
    std::vector<NetId> in;
    std::vector<NetId> out;
    bool feedback = false;
};

std::vector<OracleCell>
oracleCells(const Netlist &nl)
{
    std::vector<OracleCell> cells(nl.numGroups());
    std::map<NetId, uint32_t> driver;
    for (uint32_t gi = 0; gi < nl.numGates(); ++gi) {
        driver[nl.gate(gi).out] = gi;
        cells[nl.gate(gi).group].gates.push_back(gi);
    }
    std::set<NetId> primary_out(nl.outputs().begin(), nl.outputs().end());
    for (OracleCell &c : cells) {
        std::set<NetId> driven;
        for (uint32_t gi : c.gates)
            driven.insert(nl.gate(gi).out);
        for (uint32_t gi : c.gates) {
            const Gate &g = nl.gate(gi);
            for (int p = 0; p < g.arity(); ++p) {
                auto d = driver.find(g.in[p]);
                if (d != driver.end() && d->second >= gi)
                    c.feedback = true;
                if (!driven.count(g.in[p]) &&
                    std::find(c.in.begin(), c.in.end(), g.in[p]) ==
                        c.in.end())
                    c.in.push_back(g.in[p]);
            }
        }
        for (uint32_t gi : c.gates) {
            NetId net = nl.gate(gi).out;
            bool read_outside = primary_out.count(net) != 0;
            for (uint32_t gj = 0; gj < nl.numGates() && !read_outside;
                 ++gj) {
                const Gate &h = nl.gate(gj);
                if (driven.count(h.out))
                    continue;
                for (int p = 0; p < h.arity(); ++p)
                    read_outside |= h.in[p] == net;
            }
            if (read_outside)
                c.out.push_back(net);
        }
    }
    return cells;
}

/** Value of @p net after evaluating the group's gates in order. */
uint16_t
oracleTable(const Netlist &nl, const OracleCell &c, NetId net)
{
    uint16_t table = 0;
    for (uint32_t idx = 0; idx < 16; ++idx) {
        std::map<NetId, bool> value;
        for (size_t i = 0; i < c.in.size(); ++i)
            value[c.in[i]] = idx >> i & 1;
        for (uint32_t gi : c.gates) {
            const Gate &g = nl.gate(gi);
            uint32_t bits = 0;
            for (int p = 0; p < g.arity(); ++p)
                bits |= static_cast<uint32_t>(value.at(g.in[p])) << p;
            value[g.out] = gateEval(g.kind, bits);
        }
        if (value.at(net))
            table |= static_cast<uint16_t>(1u << idx);
    }
    return table;
}

TEST(CellIndex, MatchesAnIndependentTabulation)
{
    for (const auto &[name, nl] : operatorNetlistsUnderTest()) {
        SCOPED_TRACE(name);
        const CellIndex *index = nl.cellIndex();
        ASSERT_NE(index, nullptr);
        std::vector<OracleCell> want = oracleCells(nl);
        ASSERT_EQ(index->numCells(), want.size());
        size_t eligible = 0;
        for (size_t grp = 0; grp < want.size(); ++grp) {
            SCOPED_TRACE("group " + std::to_string(grp));
            const Cell &c = index->cell(grp);
            const OracleCell &o = want[grp];
            ASSERT_EQ(c.numGates, o.gates.size());
            if (o.gates.empty())
                continue;
            EXPECT_EQ(c.firstGate, o.gates.front());
            EXPECT_EQ(c.endGate, o.gates.back() + 1);
            bool contiguous =
                o.gates.back() - o.gates.front() + 1 == o.gates.size();
            EXPECT_EQ(c.contiguous(), contiguous);
            EXPECT_EQ(c.feedback, o.feedback);
            bool want_eligible = contiguous && !o.feedback &&
                o.in.size() <= 4 && o.out.size() <= 2;
            ASSERT_EQ(c.eligible, want_eligible);
            if (!contiguous)
                continue; // input counts are exact for ranges only
            EXPECT_EQ(c.numIn, o.in.size());
            EXPECT_EQ(c.numOut, o.out.size());
            if (!c.eligible)
                continue;
            ++eligible;
            for (size_t i = 0; i < o.in.size(); ++i)
                EXPECT_EQ(c.in[i], o.in[i]);
            for (size_t k = 0; k < o.out.size(); ++k) {
                EXPECT_EQ(c.out[k], o.out[k]);
                EXPECT_EQ(c.table[k], oracleTable(nl, o, o.out[k]))
                    << "output " << k;
            }
        }
        if (!nl.hasFeedback()) {
            EXPECT_GT(eligible, 0u);
        }
    }
}

TEST(CellIndex, SitesMatchAPlainScan)
{
    for (const auto &[name, nl] : operatorNetlistsUnderTest()) {
        SCOPED_TRACE(name);
        std::vector<std::vector<uint32_t>> want;
        for (size_t grp = 0; grp < nl.numGroups(); ++grp) {
            std::vector<uint32_t> sites;
            for (uint32_t gi = 0; gi < nl.numGates(); ++gi)
                if (nl.gate(gi).group == grp &&
                    hasSchematic(nl.gate(gi).kind))
                    sites.push_back(gi);
            if (!sites.empty())
                want.push_back(sites);
        }
        const CellIndex &index = *nl.cellIndex();
        ASSERT_EQ(index.numSiteGroups(), want.size());
        for (size_t k = 0; k < want.size(); ++k) {
            auto got = index.siteGroup(k);
            EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                      want[k]);
        }
    }
}

TEST(CellIndex, HandBuiltNetlistsCarryNoneAndEditsDropIt)
{
    Netlist hand;
    NetId a = hand.addNet();
    hand.markInput(a);
    hand.markOutput(hand.addGate(GateKind::Not, {a}));
    EXPECT_EQ(hand.cellIndex(), nullptr);

    Netlist built = buildRippleAdder(4, FaStyle::Nand9, true);
    ASSERT_NE(built.cellIndex(), nullptr);
    Netlist copy = built;
    EXPECT_EQ(copy.cellIndex(), built.cellIndex()); // shared, immutable
    copy.markOutput(copy.inputs()[0]);
    EXPECT_EQ(copy.cellIndex(), nullptr);
    EXPECT_NE(built.cellIndex(), nullptr);
    copy.indexCells();
    ASSERT_NE(copy.cellIndex(), nullptr);
    // The new primary output is an input net: no group drives it.
    EXPECT_EQ(copy.cellIndex()->cell(0).numOut,
              built.cellIndex()->cell(0).numOut);
}

} // namespace
} // namespace dtann
