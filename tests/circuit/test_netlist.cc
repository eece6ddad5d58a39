/**
 * @file
 * Unit tests for the structural netlist.
 */

#include <gtest/gtest.h>

#include "circuit/netlist.hh"

namespace dtann {
namespace {

TEST(Netlist, AddGateCreatesOutputNet)
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    NetId out = nl.addGate(GateKind::Nand2, {a, b});
    EXPECT_EQ(nl.numGates(), 1u);
    EXPECT_EQ(nl.numNets(), 3u);
    EXPECT_EQ(nl.gate(0).out, out);
    EXPECT_EQ(nl.gate(0).in[0], a);
    EXPECT_EQ(nl.gate(0).in[1], b);
}

TEST(Netlist, ConstNetsAreShared)
{
    Netlist nl;
    NetId c1 = nl.constNet(true);
    NetId c2 = nl.constNet(true);
    NetId c0 = nl.constNet(false);
    EXPECT_EQ(c1, c2);
    EXPECT_NE(c1, c0);
    EXPECT_EQ(nl.numGates(), 2u);
}

TEST(Netlist, InputOutputOrderPreserved)
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.markInput(a);
    nl.markInput(b);
    NetId out = nl.addGate(GateKind::Nand2, {a, b});
    nl.markOutput(out);
    ASSERT_EQ(nl.inputs().size(), 2u);
    EXPECT_EQ(nl.inputs()[0], a);
    EXPECT_EQ(nl.inputs()[1], b);
    ASSERT_EQ(nl.outputs().size(), 1u);
    EXPECT_EQ(nl.outputs()[0], out);
}

TEST(Netlist, GroupTagging)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.setGroup(0);
    nl.addGate(GateKind::Not, {a});
    nl.setGroup(3);
    nl.addGate(GateKind::Not, {a});
    EXPECT_EQ(nl.gate(0).group, 0);
    EXPECT_EQ(nl.gate(1).group, 3);
    EXPECT_EQ(nl.numGroups(), 4);
}

TEST(Netlist, TransistorCount)
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.addGate(GateKind::Nand2, {a, b}); // 4
    nl.addGate(GateKind::Not, {a});      // 2
    nl.constNet(false);                  // 0
    EXPECT_EQ(nl.transistorCount(), 6u);
}

TEST(Netlist, DepthOfChain)
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId x = nl.addGate(GateKind::Not, {a});
    NetId y = nl.addGate(GateKind::Not, {x});
    NetId z = nl.addGate(GateKind::Not, {y});
    (void)z;
    EXPECT_EQ(nl.depth(), 3);
}

TEST(Netlist, DepthOfParallelGates)
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.addGate(GateKind::Not, {a});
    nl.addGate(GateKind::Not, {b});
    EXPECT_EQ(nl.depth(), 1);
}

TEST(Netlist, FeedbackDetected)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId loop = nl.addNet();
    NetId q = nl.addGate(GateKind::Nand2, {a, loop});
    nl.addGateOnto(GateKind::Not, {q}, loop);
    EXPECT_TRUE(nl.hasFeedback());
}

TEST(Netlist, InputDeclaredAfterItsReaderIsNotFeedback)
{
    // hasFeedback() is tracked as the netlist grows: a net read
    // before any gate drives it counts as feedback only until it is
    // declared a primary input.
    Netlist nl;
    NetId a = nl.addNet();
    NetId x = nl.addGate(GateKind::Not, {a});
    EXPECT_TRUE(nl.hasFeedback());
    nl.markInput(a);
    EXPECT_FALSE(nl.hasFeedback());
    nl.addGate(GateKind::Nand2, {x, a});
    EXPECT_FALSE(nl.hasFeedback());
    NetId late = nl.addNet();
    NetId y = nl.addGate(GateKind::Nand2, {x, late});
    EXPECT_TRUE(nl.hasFeedback());
    nl.addGateOnto(GateKind::Not, {y}, late);
    EXPECT_TRUE(nl.hasFeedback());
}

TEST(Netlist, NoFeedbackInDag)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId x = nl.addGate(GateKind::Not, {a});
    nl.addGate(GateKind::Not, {x});
    EXPECT_FALSE(nl.hasFeedback());
}

} // namespace
} // namespace dtann
