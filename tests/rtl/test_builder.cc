/**
 * @file
 * Unit tests for the composite-logic builder primitives.
 */

#include <gtest/gtest.h>

#include "circuit/evaluator.hh"
#include "rtl/builder.hh"

namespace dtann {
namespace {

/** Evaluate a single-output builder circuit over all inputs. */
uint32_t
truthTable(Netlist &nl, int inputs)
{
    Evaluator ev(nl);
    uint32_t table = 0;
    for (uint32_t in = 0; in < (1u << inputs); ++in)
        if (ev.evaluateBits(in) & 1)
            table |= 1u << in;
    return table;
}

TEST(Builder, And2Or2Xor2Xnor2)
{
    struct Case
    {
        const char *name;
        NetId (*make)(NetlistBuilder &, NetId, NetId);
        uint32_t expect; // truth over ba = 00,01,10,11
    };
    const Case cases[] = {
        {"and2",
         [](NetlistBuilder &b, NetId x, NetId y) { return b.and2(x, y); },
         0b1000},
        {"or2",
         [](NetlistBuilder &b, NetId x, NetId y) { return b.or2(x, y); },
         0b1110},
        {"xor2",
         [](NetlistBuilder &b, NetId x, NetId y) { return b.xor2(x, y); },
         0b0110},
        {"xnor2",
         [](NetlistBuilder &b, NetId x, NetId y) {
             return b.xnor2(x, y);
         },
         0b1001},
    };
    for (const Case &c : cases) {
        NetlistBuilder bld;
        Bus in = bld.inputBus(2);
        bld.netlist().markOutput(c.make(bld, in[0], in[1]));
        Netlist nl = bld.take();
        EXPECT_EQ(truthTable(nl, 2), c.expect) << c.name;
    }
}

TEST(Builder, Mux2SelectsSecondWhenHigh)
{
    NetlistBuilder bld;
    Bus in = bld.inputBus(3); // sel, a, b
    bld.netlist().markOutput(bld.mux2(in[0], in[1], in[2]));
    Netlist nl = bld.take();
    Evaluator ev(nl);
    for (uint32_t v = 0; v < 8; ++v) {
        bool sel = v & 1, a = v & 2, b = v & 4;
        EXPECT_EQ(ev.evaluateBits(v) & 1, (sel ? b : a) ? 1u : 0u)
            << "v=" << v;
    }
}

TEST(Builder, ReductionTrees)
{
    for (int width : {1, 2, 3, 5, 8}) {
        NetlistBuilder bld;
        Bus in = bld.inputBus(width);
        bld.netlist().markOutput(bld.andTree(in));
        Netlist nl = bld.take();
        Evaluator ev(nl);
        uint64_t all = (1ull << width) - 1;
        EXPECT_EQ(ev.evaluateBits(all), 1u) << "width " << width;
        if (width > 1) {
            EXPECT_EQ(ev.evaluateBits(all - 1), 0u);
        }
        EXPECT_EQ(ev.evaluateBits(0), width == 0 ? 1u : 0u);
    }
    NetlistBuilder bld;
    Bus in = bld.inputBus(5);
    bld.netlist().markOutput(bld.orTree(in));
    Netlist nl = bld.take();
    Evaluator ev(nl);
    EXPECT_EQ(ev.evaluateBits(0), 0u);
    EXPECT_EQ(ev.evaluateBits(0b00100), 1u);
}

TEST(Builder, HalfAdderExhaustive)
{
    NetlistBuilder bld;
    Bus in = bld.inputBus(2);
    SumCarry sc = bld.halfAdder(in[0], in[1]);
    bld.netlist().markOutput(sc.sum);
    bld.netlist().markOutput(sc.carry);
    Netlist nl = bld.take();
    Evaluator ev(nl);
    for (uint32_t v = 0; v < 4; ++v) {
        uint64_t out = ev.evaluateBits(v);
        uint32_t total = (v & 1) + ((v >> 1) & 1);
        EXPECT_EQ(out & 1, total & 1);
        EXPECT_EQ((out >> 1) & 1, total >> 1);
    }
}

TEST(Builder, FullAdderBothStylesExhaustive)
{
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        NetlistBuilder bld;
        Bus in = bld.inputBus(3);
        SumCarry sc = bld.fullAdder(in[0], in[1], in[2], style);
        bld.netlist().markOutput(sc.sum);
        bld.netlist().markOutput(sc.carry);
        Netlist nl = bld.take();
        Evaluator ev(nl);
        for (uint32_t v = 0; v < 8; ++v) {
            uint64_t out = ev.evaluateBits(v);
            uint32_t total =
                (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
            EXPECT_EQ(out & 1, total & 1)
                << "style " << static_cast<int>(style) << " v=" << v;
            EXPECT_EQ((out >> 1) & 1, total >> 1);
        }
    }
}

TEST(Builder, CellGroupsAdvance)
{
    NetlistBuilder bld;
    Bus in = bld.inputBus(2);
    bld.beginCell();
    bld.and2(in[0], in[1]);
    uint16_t g1 = bld.netlist().group();
    bld.beginCell();
    bld.or2(in[0], in[1]);
    uint16_t g2 = bld.netlist().group();
    EXPECT_NE(g1, g2);
}

TEST(Builder, FullAdderTransistorBudgets)
{
    NetlistBuilder b1;
    Bus i1 = b1.inputBus(3);
    b1.fullAdder(i1[0], i1[1], i1[2], FaStyle::Nand9);
    EXPECT_EQ(b1.netlist().transistorCount(), 36u);

    NetlistBuilder b2;
    Bus i2 = b2.inputBus(3);
    b2.fullAdder(i2[0], i2[1], i2[2], FaStyle::Mirror);
    EXPECT_EQ(b2.netlist().transistorCount(), 28u);
}

} // namespace
} // namespace dtann
