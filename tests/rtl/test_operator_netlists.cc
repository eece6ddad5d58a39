/**
 * @file
 * The shared operator netlist set and the cell census over it.
 *
 * The census pins which groups evaluate as one table op: every
 * group of the multiplier and the ripple adder, every group of the
 * sigmoid unit but the named exceptions, and no group of the latch
 * register. A builder change that splits or merges cells shows up
 * here with the reason each new exception is not eligible.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "circuit/cell_index.hh"
#include "core/backend.hh"
#include "rtl/adder.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_netlists.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {
namespace {

/** Why a group is not one table op ("" when it is). */
std::string
whyNotEligible(const Cell &c)
{
    if (!c.contiguous())
        return "not contiguous";
    if (c.feedback)
        return "feedback";
    if (c.numIn > 4)
        return std::to_string(c.numIn) + " inputs";
    if (c.numOut > 2)
        return std::to_string(c.numOut) + " outputs";
    return "";
}

/** Every group of @p nl that is not eligible, with its reason. */
std::map<size_t, std::string>
exceptions(const Netlist &nl)
{
    std::map<size_t, std::string> out;
    const CellIndex &index = *nl.cellIndex();
    for (size_t grp = 0; grp < index.numCells(); ++grp) {
        const Cell &c = index.cell(grp);
        EXPECT_EQ(c.eligible, whyNotEligible(c).empty()) << "group " << grp;
        if (!c.eligible)
            out[grp] = whyNotEligible(c);
    }
    return out;
}

TEST(OperatorNetlists, BuiltOnceAndSharedPerStyle)
{
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        const OperatorNetlists &a = operatorNetlists(style);
        const OperatorNetlists &b = operatorNetlists(style);
        EXPECT_EQ(&a, &b);
        for (const auto &nl : {a.multiplier, a.adder, a.latch, a.sigmoid}) {
            ASSERT_NE(nl, nullptr);
            EXPECT_NE(nl->cellIndex(), nullptr);
        }
        EXPECT_EQ(a.multiplier->numGates(),
                  buildMultiplierSigned(16, style).numGates());
        EXPECT_EQ(a.adder->transistorCount(),
                  buildRippleAdder(24, style, false).transistorCount());
        EXPECT_EQ(a.sigmoid->numGates(),
                  buildSigmoidUnit(logisticPwlTable(), style).numGates());
    }
    // The latch has no full adder: one netlist serves both styles.
    EXPECT_EQ(operatorNetlists(FaStyle::Nand9).latch,
              operatorNetlists(FaStyle::Mirror).latch);

    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    cfg.faStyle = FaStyle::Mirror;
    for (BackendKind kind : {BackendKind::Spatial, BackendKind::Systolic}) {
        auto backend = makeBackend(kind, cfg, {12, 4, 3});
        const OperatorNetlists &set = operatorNetlists(cfg.faStyle);
        EXPECT_EQ(&backend->multiplierNetlist(), set.multiplier.get());
        EXPECT_EQ(&backend->adderNetlist(), set.adder.get());
        EXPECT_EQ(&backend->latchNetlist(), set.latch.get());
        EXPECT_EQ(&backend->activationNetlist(), set.sigmoid.get());
    }
}

TEST(OperatorNetlists, CellCensus)
{
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        SCOPED_TRACE(faStyleName(style));
        const OperatorNetlists &set = operatorNetlists(style);
        // Partial products (2 inputs, 1 output; the last one also
        // holds the Baugh-Wooley constant), half adders (2 in, 2 out)
        // and full adders (3 in, 2 out): all table ops.
        EXPECT_TRUE(exceptions(*set.multiplier).empty());
        EXPECT_TRUE(exceptions(*set.adder).empty());

        // The sigmoid unit's exceptions. Group 1 forms the segment
        // index literals: index bit 3 (the inverted x13) and the
        // complements of all four index bits, 5 nets the decoder
        // reads. The coefficient
        // look-up ORs, for each coefficient bit, the select lines of
        // every segment whose coefficient has that bit set; those
        // with more than 4 segments have more than 4 inputs. The
        // counts follow logisticPwlTable().
        std::map<size_t, std::string> want = {
            {1, "5 outputs"},  {18, "8 inputs"}, {20, "8 inputs"},
            {21, "10 inputs"}, {34, "10 inputs"}, {35, "5 inputs"},
            {36, "9 inputs"},  {37, "7 inputs"}, {38, "7 inputs"},
            {39, "7 inputs"},  {40, "7 inputs"}, {41, "7 inputs"},
            {42, "7 inputs"},  {43, "9 inputs"},
        };
        EXPECT_EQ(exceptions(*set.sigmoid), want);

        // Every latch cell is a cross-coupled NAND pair: feedback,
        // so the latch keeps gate ops (it never runs cone-pruned).
        std::map<size_t, std::string> latch = exceptions(*set.latch);
        EXPECT_EQ(latch.size(), set.latch->cellIndex()->numCells());
        for (const auto &[grp, why] : latch)
            EXPECT_EQ(why, "feedback") << "group " << grp;
    }
}

} // namespace
} // namespace dtann
