/**
 * @file
 * Unit tests for netlist evaluation, including faults and state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "circuit/evaluator.hh"

namespace dtann {
namespace {

/** Two-input XOR from four NANDs, for exercising multi-level logic. */
Netlist
xorNetlist()
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.markInput(a);
    nl.markInput(b);
    NetId n1 = nl.addGate(GateKind::Nand2, {a, b});
    NetId n2 = nl.addGate(GateKind::Nand2, {a, n1});
    NetId n3 = nl.addGate(GateKind::Nand2, {b, n1});
    NetId out = nl.addGate(GateKind::Nand2, {n2, n3});
    nl.markOutput(out);
    return nl;
}

TEST(Evaluator, CombinationalXor)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    for (uint64_t in = 0; in < 4; ++in) {
        uint64_t out = ev.evaluateBits(in);
        EXPECT_EQ(out, ((in & 1) ^ (in >> 1)) & 1) << "in=" << in;
    }
}

TEST(Evaluator, ConvergesInOneSweepForTopologicalOrder)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    ev.evaluateBits(0b01);
    // One sweep to settle plus one to confirm stability.
    EXPECT_LE(ev.lastSweeps(), 2);
    EXPECT_FALSE(ev.lastOscillated());
}

TEST(Evaluator, InputRangeAddressing)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    ev.setInputRange(0, 1, 1);
    ev.setInputRange(1, 1, 0);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    EXPECT_EQ(ev.outputRange(0, 1), 1u);
}

TEST(Evaluator, InputRangesWriteEveryBusNet)
{
    // A consecutive input bus (written a byte at a time) and one with
    // a gap after every third input net (written bit by bit) take the
    // same random range writes, across byte boundaries and at every
    // width up to 64.
    for (bool gaps : {false, true}) {
        Netlist nl;
        for (int i = 0; i < 64; ++i) {
            nl.markInput(nl.addNet());
            if (gaps && i % 3 == 2)
                nl.addNet();
        }
        nl.markOutput(nl.addGate(GateKind::Not, {nl.inputs()[0]}));
        Evaluator ev(nl);
        std::vector<uint8_t> want(64, 0);
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int round = 0; round < 500; ++round) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            size_t offset = (x >> 20) % 64;
            size_t width = (x >> 30) % (65 - offset);
            uint64_t bits = x ^ (x << 13);
            ev.setInputRange(offset, width, bits);
            for (size_t i = 0; i < width; ++i)
                want[offset + i] = (bits >> i) & 1;
            for (size_t i = 0; i < 64; ++i)
                ASSERT_EQ(ev.netValues()[nl.inputs()[i]], want[i])
                    << "gaps " << gaps << " round " << round
                    << " input " << i;
        }
    }
}

TEST(Evaluator, StuckAtInputFault)
{
    Netlist nl = xorNetlist();
    // Force input 0 of the first NAND (net a) to 1: gate 0 computes
    // NAND(1, b) = !b, turning XOR(a,b) into XOR-with-a-corrupted
    // first term.
    FaultSet faults;
    faults.stuckAt.push_back({0, 0, true});
    Evaluator ev(nl, std::move(faults));
    // a=0, b=1: clean XOR = 1. With the fault, n1 = NAND(1,1) = 0,
    // n2 = NAND(0,0) = 1, n3 = NAND(1,0) = 1, out = NAND(1,1) = 0.
    EXPECT_EQ(ev.evaluateBits(0b10), 0u);
}

TEST(Evaluator, StuckAtOutputFault)
{
    Netlist nl = xorNetlist();
    // Stick the final NAND output at 1.
    FaultSet faults;
    faults.stuckAt.push_back({3, -1, true});
    Evaluator ev(nl, std::move(faults));
    for (uint64_t in = 0; in < 4; ++in)
        EXPECT_EQ(ev.evaluateBits(in), 1u);
}

TEST(Evaluator, OverrideFunctionReplacesGate)
{
    Netlist nl = xorNetlist();
    // Replace the final NAND with a NOR truth table.
    FaultSet faults;
    faults.overrides[3] = GateFunction::fromGateKind(GateKind::Nor2);
    Evaluator ev(nl, std::move(faults));
    // a=1,b=1: n1=0, n2=NAND(1,0)=1, n3=1; NOR(1,1)=0 (same as
    // clean XOR here). a=0,b=0: n1=1, n2=1, n3=1; NOR(1,1)=0 ==
    // clean. a=1,b=0: n1=1, n2=0, n3=1; NOR(0,1)=0, clean XOR=1.
    EXPECT_EQ(ev.evaluateBits(0b01), 0u);
}

TEST(Evaluator, MemHoldsPreviousValue)
{
    // Single inverter whose faulty function floats when input is 1:
    // in=0 -> 1, in=1 -> MEM.
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);

    FaultSet faults;
    faults.overrides[0] = GateFunction(1, 0b01, 0b10);
    Evaluator ev(nl, std::move(faults));
    EXPECT_EQ(ev.evaluateBits(0), 1u);
    // Floats: retains 1.
    EXPECT_EQ(ev.evaluateBits(1), 1u);
    ev.reset();
    // After reset the floating node reads its cleared value 0.
    EXPECT_EQ(ev.evaluateBits(1), 0u);
}

TEST(Evaluator, DelayedGateLagsOneEvaluation)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);

    FaultSet faults;
    faults.delayed.insert(0);
    Evaluator ev(nl, std::move(faults));
    // First evaluation outputs the reset value (0), stores !0... the
    // input of this round: in=0 -> pending=1.
    EXPECT_EQ(ev.evaluateBits(0), 0u);
    // Second round outputs the pending 1 regardless of input.
    EXPECT_EQ(ev.evaluateBits(1), 1u);
    // Pending from in=1 is 0.
    EXPECT_EQ(ev.evaluateBits(0), 0u);
    EXPECT_EQ(ev.evaluateBits(0), 1u);
}

TEST(Evaluator, CrossCoupledLatchConverges)
{
    // Gated SR: S~ = NAND(d, en), R~ = NAND(!d, en), cross-coupled
    // output pair.
    Netlist nl;
    NetId d = nl.addNet();
    NetId en = nl.addNet();
    nl.markInput(d);
    nl.markInput(en);
    NetId dn = nl.addGate(GateKind::Not, {d});
    NetId sn = nl.addGate(GateKind::Nand2, {d, en});
    NetId rn = nl.addGate(GateKind::Nand2, {dn, en});
    NetId qb = nl.addNet();
    NetId q = nl.addGate(GateKind::Nand2, {sn, qb});
    nl.addGateOnto(GateKind::Nand2, {rn, q}, qb);
    nl.markOutput(q);

    Evaluator ev(nl);
    // Write 1.
    ev.setInput(0, true);
    ev.setInput(1, true);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    EXPECT_FALSE(ev.lastOscillated());
    // Close the latch, change D: Q must hold.
    ev.setInput(1, false);
    ev.evaluate();
    ev.setInput(0, false);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    // Write 0.
    ev.setInput(1, true);
    ev.evaluate();
    EXPECT_FALSE(ev.output(0));
}

TEST(Evaluator, RingOscillatorHitsSweepCap)
{
    // A 3-inverter ring never settles; the evaluator must stop at
    // the sweep cap and report oscillation rather than hang.
    Netlist nl;
    NetId loop = nl.addNet();
    NetId x = nl.addGate(GateKind::Not, {loop});
    NetId y = nl.addGate(GateKind::Not, {x});
    nl.addGateOnto(GateKind::Not, {y}, loop);
    nl.markOutput(loop);
    Evaluator ev(nl);
    ev.evaluate();
    EXPECT_TRUE(ev.lastOscillated());
}

TEST(Evaluator, FaultSetMergeCombinesAllKinds)
{
    FaultSet a, b;
    a.overrides[1] = GateFunction::fromGateKind(GateKind::Nor2);
    a.stuckAt.push_back({0, 0, true});
    b.overrides[2] = GateFunction::fromGateKind(GateKind::Nand2);
    b.delayed.insert(3);
    b.stuckAt.push_back({4, -1, false});
    a.merge(b);
    EXPECT_EQ(a.overrides.size(), 2u);
    EXPECT_EQ(a.stuckAt.size(), 2u);
    EXPECT_EQ(a.delayed.count(3), 1u);
    EXPECT_FALSE(a.empty());
    FaultSet empty;
    EXPECT_TRUE(empty.empty());
}

TEST(Evaluator, StatePersistsAcrossEvaluateCalls)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);
    FaultSet faults;
    faults.overrides[0] = GateFunction(1, 0b01, 0b10); // MEM on in=1
    Evaluator ev(nl, std::move(faults));
    ev.evaluateBits(0);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ev.evaluateBits(1), 1u) << "iteration " << i;
}

} // namespace
} // namespace dtann
