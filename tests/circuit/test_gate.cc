/**
 * @file
 * Unit tests for gate primitives and truth tables.
 */

#include <gtest/gtest.h>

#include "circuit/gate.hh"
#include "circuit/gate_function.hh"

namespace dtann {
namespace {

std::vector<GateKind>
allRealGates()
{
    return {GateKind::Not, GateKind::Nand2, GateKind::Nand3,
            GateKind::Nor2, GateKind::Nor3, GateKind::Aoi21,
            GateKind::Aoi22, GateKind::Oai21, GateKind::Oai22,
            GateKind::CarryN, GateKind::MirrorSumN};
}

TEST(Gate, ArityMatchesKind)
{
    EXPECT_EQ(gateArity(GateKind::Const0), 0);
    EXPECT_EQ(gateArity(GateKind::Not), 1);
    EXPECT_EQ(gateArity(GateKind::Nand2), 2);
    EXPECT_EQ(gateArity(GateKind::Aoi21), 3);
    EXPECT_EQ(gateArity(GateKind::Aoi22), 4);
    EXPECT_EQ(gateArity(GateKind::CarryN), 3);
    EXPECT_EQ(gateArity(GateKind::MirrorSumN), 4);
}

TEST(Gate, TableMatchesEvalOnEveryIndex)
{
    // The folded clean table of every kind, constants included:
    // each of the 16 indices equals gateEval() with the padding
    // bits (at and above the arity) ignored.
    for (size_t k = 0; k < static_cast<size_t>(GateKind::NumKinds); ++k) {
        GateKind kind = static_cast<GateKind>(k);
        uint32_t used = (1u << gateArity(kind)) - 1;
        uint16_t table = gateTable(kind);
        for (uint32_t idx = 0; idx < 16; ++idx)
            EXPECT_EQ((table >> idx & 1) != 0, gateEval(kind, idx & used))
                << gateName(kind) << " index " << idx;
    }
}

TEST(Gate, BasicTruth)
{
    EXPECT_TRUE(gateEval(GateKind::Nand2, 0b00));
    EXPECT_TRUE(gateEval(GateKind::Nand2, 0b01));
    EXPECT_FALSE(gateEval(GateKind::Nand2, 0b11));
    EXPECT_TRUE(gateEval(GateKind::Nor2, 0b00));
    EXPECT_FALSE(gateEval(GateKind::Nor2, 0b10));
    EXPECT_TRUE(gateEval(GateKind::Not, 0));
    EXPECT_FALSE(gateEval(GateKind::Not, 1));
}

TEST(Gate, Aoi21Truth)
{
    // !((a & b) | c)
    for (uint32_t in = 0; in < 8; ++in) {
        bool a = in & 1, b = in & 2, c = in & 4;
        EXPECT_EQ(gateEval(GateKind::Aoi21, in), !((a && b) || c));
    }
}

TEST(Gate, Oai22Truth)
{
    for (uint32_t in = 0; in < 16; ++in) {
        bool a = in & 1, b = in & 2, c = in & 4, d = in & 8;
        EXPECT_EQ(gateEval(GateKind::Oai22, in),
                  !((a || b) && (c || d)));
    }
}

TEST(Gate, CarryNIsInvertedMajority)
{
    for (uint32_t in = 0; in < 8; ++in) {
        int a = in & 1, b = (in >> 1) & 1, c = (in >> 2) & 1;
        bool maj = a + b + c >= 2;
        EXPECT_EQ(gateEval(GateKind::CarryN, in), !maj) << "in=" << in;
    }
}

TEST(Gate, MirrorSumProducesXor3)
{
    // With d = CarryN(a,b,c), !MirrorSumN(a,b,c,d) == a^b^c.
    for (uint32_t in = 0; in < 8; ++in) {
        int a = in & 1, b = (in >> 1) & 1, c = (in >> 2) & 1;
        uint32_t coutn = gateEval(GateKind::CarryN, in) ? 1 : 0;
        bool sumn = gateEval(GateKind::MirrorSumN, in | (coutn << 3));
        EXPECT_EQ(!sumn, (a ^ b ^ c) != 0) << "in=" << in;
    }
}

TEST(Gate, TransistorCounts)
{
    EXPECT_EQ(gateTransistorCount(GateKind::Not), 2);
    EXPECT_EQ(gateTransistorCount(GateKind::Nand2), 4);
    EXPECT_EQ(gateTransistorCount(GateKind::Nand3), 6);
    EXPECT_EQ(gateTransistorCount(GateKind::Aoi22), 8);
    EXPECT_EQ(gateTransistorCount(GateKind::CarryN), 10);
    EXPECT_EQ(gateTransistorCount(GateKind::MirrorSumN), 14);
    EXPECT_EQ(gateTransistorCount(GateKind::Const0), 0);
}

TEST(Gate, NamesAreDistinct)
{
    auto kinds = allRealGates();
    for (size_t i = 0; i < kinds.size(); ++i)
        for (size_t j = i + 1; j < kinds.size(); ++j)
            EXPECT_STRNE(gateName(kinds[i]), gateName(kinds[j]));
}

TEST(GateFunction, FromKindRoundTrip)
{
    for (GateKind k : allRealGates()) {
        GateFunction f = GateFunction::fromGateKind(k);
        EXPECT_EQ(f.numInputs(), gateArity(k));
        EXPECT_FALSE(f.hasMem());
        EXPECT_TRUE(f.matchesKind(k));
        for (uint32_t in = 0; in < (1u << gateArity(k)); ++in) {
            LogicValue lv = f.eval(in);
            EXPECT_EQ(lv == LogicValue::One, gateEval(k, in))
                << gateName(k) << " in=" << in;
        }
    }
}

TEST(GateFunction, MemEntriesReported)
{
    // NAND2-like function with MEM on input combination 3.
    GateFunction f(2, 0b0111, 0b1000);
    EXPECT_TRUE(f.hasMem());
    EXPECT_EQ(f.eval(3), LogicValue::Mem);
    EXPECT_EQ(f.eval(0), LogicValue::One);
    EXPECT_FALSE(f.matchesKind(GateKind::Nand2));
}

} // namespace
} // namespace dtann
