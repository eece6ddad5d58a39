/**
 * @file
 * Unit tests for Q6.10 fixed-point arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

TEST(Fix16, FromDoubleNanIsZero)
{
    EXPECT_EQ(Fix16::fromDouble(NAN).raw(), 0);
    EXPECT_EQ(Fix16::fromDouble(-NAN).raw(), 0);
    // Every position of the vector steps and of the scalar tail.
    for (size_t n = 1; n <= 17; ++n) {
        for (size_t at = 0; at < n; ++at) {
            std::vector<double> x(n, 1.0);
            x[at] = at % 2 ? -NAN : NAN;
            std::vector<Fix16> out(n);
            Fix16::fromDoubles(x.data(), out.data(), n);
            for (size_t k = 0; k < n; ++k)
                EXPECT_EQ(out[k].raw(), k == at ? 0 : Fix16::scale)
                    << "n=" << n << " at=" << at << " k=" << k;
        }
    }
}

/**
 * Values where a vector conversion could part from fromDouble():
 * every raw value's half-quantum ties and one ulp either side of
 * them, signed zeros, infinities, huge magnitudes, and values just
 * past the saturation points +-32.
 */
std::vector<double>
conversionEdges()
{
    const double inf = INFINITY;
    std::vector<double> xs = {0.0, -0.0, inf, -inf, 1e300, -1e300};
    for (double edge : {32.0, -32.0, 32767.0 / 1024, -32768.0 / 1024}) {
        double x = edge;
        for (int k = 0; k < 4; ++k) {
            xs.push_back(x);
            x = std::nextafter(x, edge > 0 ? inf : -inf);
        }
        xs.push_back(edge + 0.5 / Fix16::scale);
        xs.push_back(edge - 0.5 / Fix16::scale);
    }
    for (int r = Fix16::rawMin; r <= Fix16::rawMax; ++r) {
        for (double d : {0.5, -0.5}) {
            double x = (r + d) / Fix16::scale;
            xs.push_back(x);
            xs.push_back(std::nextafter(x, inf));
            xs.push_back(std::nextafter(x, -inf));
        }
    }
    return xs;
}

TEST(Fix16, FromDoublesMatchesFromDouble)
{
    std::vector<double> xs = conversionEdges();
    // The whole set from unaligned starts: each word goes through
    // every lane position of the vector steps.
    for (size_t start = 0; start < 8; ++start) {
        size_t n = xs.size() - start;
        std::vector<Fix16> out(n);
        Fix16::fromDoubles(xs.data() + start, out.data(), n);
        size_t mismatches = 0;
        for (size_t k = 0; k < n; ++k)
            if (out[k] != Fix16::fromDouble(xs[start + k]) && !mismatches++)
                ADD_FAILURE() << "start " << start << ": first mismatch at x="
                              << xs[start + k];
    }
    // Short lengths: the 8- and 4-word steps and the scalar tail, and
    // no word written past n.
    const Fix16 sentinel = Fix16::fromRaw(0x5a5);
    for (size_t n = 0; n <= 17; ++n) {
        for (size_t start = 0; start < 4; ++start) {
            std::vector<Fix16> out(n + 3, sentinel);
            Fix16::fromDoubles(xs.data() + start, out.data() + 1, n);
            EXPECT_EQ(out[0], sentinel);
            for (size_t k = 0; k < n; ++k)
                EXPECT_EQ(out[k + 1], Fix16::fromDouble(xs[start + k]))
                    << "n=" << n << " start=" << start << " k=" << k;
            EXPECT_EQ(out[n + 1], sentinel) << "n=" << n;
            EXPECT_EQ(out[n + 2], sentinel) << "n=" << n;
        }
    }
}

TEST(Fix16, HwDotMatchesHwMulChain)
{
    Rng rng(11);
    auto word = [&] {
        // Extremes often, including -32768 * -32768.
        switch (rng.nextUint(4)) {
          case 0: return Fix16::fromRaw(Fix16::rawMin);
          case 1: return Fix16::fromRaw(Fix16::rawMax);
          default:
            return Fix16::fromRaw(
                static_cast<int16_t>(rng.nextInt(-32768, 32767)));
        }
    };
    for (size_t n = 0; n <= 40; ++n) {
        for (int trial = 0; trial < 50; ++trial) {
            // One spare word each side: unaligned starts, and a
            // word past the end that must not be read into the sum.
            std::vector<Fix16> w(n + 2), x(n + 2);
            for (size_t k = 0; k < n + 2; ++k) {
                w[k] = word();
                x[k] = word();
            }
            uint32_t want = 0;
            Acc24 chain;
            for (size_t k = 1; k <= n; ++k) {
                Fix16 p = Fix16::hwMul(w[k], x[k]);
                want += static_cast<uint32_t>(p.raw());
                chain = Acc24::hwAdd(chain, Acc24::fromFix16(p));
            }
            uint32_t got = Fix16::hwDot(w.data() + 1, x.data() + 1, n);
            ASSERT_EQ(got, want) << "n=" << n << " trial=" << trial;
            // Wrapped once to 24 bits, the sum is the adder chain.
            ASSERT_EQ(Acc24::fromRaw(static_cast<int32_t>(got)), chain);
        }
    }
    std::vector<Fix16> lo(40, Fix16::fromRaw(Fix16::rawMin));
    std::vector<Fix16> hi(40, Fix16::fromRaw(Fix16::rawMax));
    EXPECT_EQ(Fix16::hwDot(lo.data(), hi.data(), 40),
              40u * static_cast<uint32_t>(Fix16::hwMul(lo[0], hi[0]).raw()));
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
