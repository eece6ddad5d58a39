/**
 * @file
 * Unit tests for Q6.10 fixed-point arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/fixed_point.hh"
#include "common/rng.hh"

namespace dtann {
namespace {

TEST(Fix16, RoundTripSmallValues)
{
    for (double x : {0.0, 1.0, -1.0, 0.5, -0.5, 3.25, -7.875}) {
        Fix16 f = Fix16::fromDouble(x);
        EXPECT_DOUBLE_EQ(f.toDouble(), x) << "x=" << x;
    }
}

TEST(Fix16, FromDoubleRounds)
{
    // 0.00049 is just under half an LSB (1/2048 = 0.000488...).
    EXPECT_EQ(Fix16::fromDouble(0.00048).raw(), 0);
    EXPECT_EQ(Fix16::fromDouble(0.0006).raw(), 1);
    EXPECT_EQ(Fix16::fromDouble(-0.0006).raw(), -1);
}

TEST(Fix16, FromDoubleSaturates)
{
    EXPECT_EQ(Fix16::fromDouble(1000.0).raw(), Fix16::rawMax);
    EXPECT_EQ(Fix16::fromDouble(-1000.0).raw(), Fix16::rawMin);
    EXPECT_NEAR(Fix16::fromDouble(1000.0).toDouble(), 32.0, 0.01);
}

/** fromDouble() as std::nearbyint() rounds, then saturated. */
int16_t
nearbyintRaw(double x)
{
    double scaled = std::nearbyint(x * Fix16::scale);
    if (scaled > Fix16::rawMax)
        return Fix16::rawMax;
    if (scaled < Fix16::rawMin)
        return Fix16::rawMin;
    return static_cast<int16_t>(scaled);
}

TEST(FixedPoint, FromDoubleMatchesNearbyint)
{
    // Every raw value and the rounding boundaries around it: exact
    // halves (ties go to even), one ulp either side of them, and a
    // hair above the value itself.
    size_t checked = 0, mismatches = 0;
    double first_bad = 0.0;
    auto check = [&](double x) {
        if (Fix16::fromDouble(x).raw() != nearbyintRaw(x) && !mismatches++)
            first_bad = x;
        ++checked;
    };
    const double inf = INFINITY;
    for (int r = Fix16::rawMin; r <= Fix16::rawMax; ++r) {
        for (double sign : {1.0, -1.0}) {
            for (double d : {0.0, 0.5, 1e-12}) {
                double x = (r + sign * d) / Fix16::scale;
                check(x);
                check(std::nextafter(x, inf));
                check(std::nextafter(x, -inf));
            }
        }
    }
    Rng rng(2024);
    for (int k = 0; k < 5000000; ++k)
        check(rng.nextDouble(-40.0, 40.0));
    for (double x : {inf, 1e300, 3e15})
        for (double sign : {1.0, -1.0})
            check(sign * x);
    EXPECT_GT(checked, 5000000u);
    EXPECT_EQ(mismatches, 0u) << "first at x=" << first_bad;
}

TEST(Fix16, HwAddWraps)
{
    Fix16 max = Fix16::fromRaw(Fix16::rawMax);
    Fix16 one = Fix16::fromRaw(1);
    EXPECT_EQ(Fix16::hwAdd(max, one).raw(), Fix16::rawMin);
}

TEST(Fix16, SatAddClips)
{
    Fix16 max = Fix16::fromRaw(Fix16::rawMax);
    Fix16 one = Fix16::fromRaw(1);
    EXPECT_EQ(Fix16::satAdd(max, one).raw(), Fix16::rawMax);
    Fix16 min = Fix16::fromRaw(Fix16::rawMin);
    EXPECT_EQ(Fix16::satAdd(min, Fix16::fromRaw(-1)).raw(), Fix16::rawMin);
}

TEST(Fix16, HwMulBasic)
{
    Fix16 a = Fix16::fromDouble(2.0);
    Fix16 b = Fix16::fromDouble(3.5);
    EXPECT_DOUBLE_EQ(Fix16::hwMul(a, b).toDouble(), 7.0);
    EXPECT_DOUBLE_EQ(Fix16::hwMul(a, Fix16::fromDouble(-3.5)).toDouble(),
                     -7.0);
}

TEST(Fix16, HwMulTruncatesTowardMinusInf)
{
    // 1/1024 * 1/1024 = 2^-20, truncates to 0.
    Fix16 eps = Fix16::fromRaw(1);
    EXPECT_EQ(Fix16::hwMul(eps, eps).raw(), 0);
    // -eps * eps = -2^-20; arithmetic shift gives -1 (floor).
    EXPECT_EQ(Fix16::hwMul(Fix16::fromRaw(-1), eps).raw(), -1);
}

TEST(Fix16, HwMulMatchesWideReference)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        int16_t ra = static_cast<int16_t>(rng.nextInt(-32768, 32767));
        int16_t rb = static_cast<int16_t>(rng.nextInt(-32768, 32767));
        int32_t wide = (static_cast<int32_t>(ra) * rb) >> 10;
        int16_t expect = static_cast<int16_t>(static_cast<uint32_t>(wide));
        EXPECT_EQ(Fix16::hwMul(Fix16::fromRaw(ra), Fix16::fromRaw(rb)).raw(),
                  expect);
    }
}

TEST(Fix16, SatMulClips)
{
    Fix16 big = Fix16::fromDouble(31.0);
    EXPECT_EQ(Fix16::satMul(big, big).raw(), Fix16::rawMax);
    EXPECT_EQ(Fix16::satMul(big, Fix16::fromDouble(-31.0)).raw(),
              Fix16::rawMin);
}

TEST(Acc24, FromFix16SignExtends)
{
    Acc24 a = Acc24::fromFix16(Fix16::fromDouble(-1.0));
    EXPECT_EQ(a.raw(), -1024);
    EXPECT_DOUBLE_EQ(a.toDouble(), -1.0);
}

TEST(Acc24, HwAddWrapsAt24Bits)
{
    Acc24 max = Acc24::fromRaw(Acc24::rawMax);
    Acc24 one = Acc24::fromRaw(1);
    EXPECT_EQ(Acc24::hwAdd(max, one).raw(), Acc24::rawMin);
}

TEST(Acc24, AccumulateNinetyProductsNoOverflow)
{
    // 90 products of magnitude <= 31.97 fit comfortably in Q14.10.
    Acc24 sum;
    Fix16 p = Fix16::fromDouble(31.0);
    for (int i = 0; i < 90; ++i)
        sum = Acc24::hwAdd(sum, Acc24::fromFix16(p));
    EXPECT_DOUBLE_EQ(sum.toDouble(), 90 * 31.0);
}

TEST(Acc24, ToFix16Saturates)
{
    Acc24 big = Acc24::fromRaw(100 * 1024);
    EXPECT_EQ(big.toFix16Sat().raw(), Fix16::rawMax);
    Acc24 small = Acc24::fromRaw(-100 * 1024);
    EXPECT_EQ(small.toFix16Sat().raw(), Fix16::rawMin);
    Acc24 mid = Acc24::fromRaw(1024);
    EXPECT_DOUBLE_EQ(mid.toFix16Sat().toDouble(), 1.0);
}

TEST(Acc24, BitsMasksTo24)
{
    EXPECT_EQ(Acc24::fromRaw(-1).bits(), 0xffffffu);
    EXPECT_EQ(Acc24::fromRaw(1).bits(), 1u);
}

} // namespace
} // namespace dtann
