/**
 * @file
 * Tests for ripple-carry adder netlists (both full-adder styles).
 */

#include <gtest/gtest.h>

#include "circuit/evaluator.hh"
#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "rtl/adder.hh"

namespace dtann {
namespace {

struct AdderCase
{
    int width;
    FaStyle style;
    /** gtest names each case by a byte dump of the struct: zeroed
     *  padding keeps stale stack bytes (an ASLR-dependent address
     *  byte among them) out of the test names. */
    uint8_t pad[3] = {};
};

class AdderTest : public ::testing::TestWithParam<AdderCase>
{
};

TEST_P(AdderTest, ExhaustiveOrRandomizedCorrectness)
{
    auto [width, style, pad] = GetParam();
    Netlist nl = buildRippleAdder(width, style, true);
    Evaluator ev(nl);
    uint64_t mask = (width == 64) ? ~0ull : ((1ull << width) - 1);

    auto check = [&](uint64_t a, uint64_t b) {
        ev.setInputRange(0, static_cast<size_t>(width), a);
        ev.setInputRange(static_cast<size_t>(width),
                         static_cast<size_t>(width), b);
        ev.evaluate();
        uint64_t sum = ev.outputRange(0, static_cast<size_t>(width));
        uint64_t cout = ev.outputRange(static_cast<size_t>(width), 1);
        uint64_t expect = a + b;
        EXPECT_EQ(sum, expect & mask) << "a=" << a << " b=" << b;
        EXPECT_EQ(cout, (expect >> width) & 1) << "a=" << a << " b=" << b;
    };

    if (width <= 5) {
        for (uint64_t a = 0; a <= mask; ++a)
            for (uint64_t b = 0; b <= mask; ++b)
                check(a, b);
    } else {
        Rng rng(42);
        for (int i = 0; i < 2000; ++i)
            check(rng.nextUint(mask + 1), rng.nextUint(mask + 1));
        check(mask, mask);
        check(0, 0);
        check(mask, 1);
    }
}

TEST_P(AdderTest, OneCellGroupPerBit)
{
    auto [width, style, pad] = GetParam();
    Netlist nl = buildRippleAdder(width, style, true);
    EXPECT_EQ(nl.numGroups(), width);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, AdderTest,
    ::testing::Values(AdderCase{2, FaStyle::Nand9},
                      AdderCase{4, FaStyle::Nand9},
                      AdderCase{4, FaStyle::Mirror},
                      AdderCase{5, FaStyle::Mirror},
                      AdderCase{16, FaStyle::Nand9},
                      AdderCase{16, FaStyle::Mirror},
                      AdderCase{24, FaStyle::Nand9},
                      AdderCase{24, FaStyle::Mirror}),
    [](const auto &info) {
        return std::to_string(info.param.width) +
            (info.param.style == FaStyle::Nand9 ? "Nand9" : "Mirror");
    });

TEST(Adder, TransistorCountsByStyle)
{
    // 9 NAND2 = 36T per bit vs 28T for the mirror adder.
    Netlist nand9 = buildRippleAdder(8, FaStyle::Nand9, true);
    Netlist mirror = buildRippleAdder(8, FaStyle::Mirror, true);
    EXPECT_EQ(nand9.transistorCount(), 8u * 36u);
    EXPECT_EQ(mirror.transistorCount(), 8u * 28u);
    EXPECT_LT(mirror.transistorCount(), nand9.transistorCount());
}

TEST(Adder, NoCarryOutVariantHasFewerOutputs)
{
    Netlist with = buildRippleAdder(8, FaStyle::Nand9, true);
    Netlist without = buildRippleAdder(8, FaStyle::Nand9, false);
    EXPECT_EQ(with.outputs().size(), 9u);
    EXPECT_EQ(without.outputs().size(), 8u);
}

TEST(Adder, DepthGrowsLinearly)
{
    Netlist small = buildRippleAdder(4, FaStyle::Nand9, true);
    Netlist big = buildRippleAdder(16, FaStyle::Nand9, true);
    EXPECT_GT(big.depth(), small.depth());
}

TEST(Adder, TwosComplementWrapInterpretation)
{
    // The 16-bit adder implements Q6.10 hwAdd exactly (wrap).
    Netlist nl = buildRippleAdder(16, FaStyle::Nand9, false);
    Evaluator ev(nl);
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        int16_t a = static_cast<int16_t>(rng.nextInt(-32768, 32767));
        int16_t b = static_cast<int16_t>(rng.nextInt(-32768, 32767));
        ev.setInputRange(0, 16, static_cast<uint16_t>(a));
        ev.setInputRange(16, 16, static_cast<uint16_t>(b));
        ev.evaluate();
        Fix16 expect = Fix16::hwAdd(Fix16::fromRaw(a), Fix16::fromRaw(b));
        EXPECT_EQ(ev.outputRange(0, 16),
                  static_cast<uint64_t>(expect.bits()));
    }
}

} // namespace
} // namespace dtann
