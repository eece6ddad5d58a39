/**
 * @file
 * Tests for the activation functions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ann/sigmoid.hh"

namespace dtann {
namespace {

TEST(Logistic, KnownValues)
{
    EXPECT_DOUBLE_EQ(logistic(0.0), 0.5);
    EXPECT_NEAR(logistic(2.0), 0.8807970779778823, 1e-12);
    EXPECT_NEAR(logistic(-2.0), 1.0 - logistic(2.0), 1e-12);
}

TEST(Logistic, DerivFromY)
{
    EXPECT_DOUBLE_EQ(logisticDerivFromY(0.5), 0.25);
    EXPECT_DOUBLE_EQ(logisticDerivFromY(1.0), 0.0);
    EXPECT_DOUBLE_EQ(logisticDerivFromY(0.0), 0.0);
}

TEST(LogisticPwl, SixteenSegmentsCloseToExact)
{
    // The paper: 16 segments have "no noticeable impact" -- the
    // approximation error stays small across the range.
    double max_err = 0.0;
    for (double x = -8.0; x <= 8.0; x += 0.01) {
        double err = std::abs(logisticPwl(x) - logistic(x));
        max_err = std::max(max_err, err);
    }
    EXPECT_LT(max_err, 0.035);
}

TEST(LogisticPwl, SaturatesAtTails)
{
    EXPECT_DOUBLE_EQ(logisticPwl(50.0), 1.0);
    EXPECT_DOUBLE_EQ(logisticPwl(-50.0), 0.0);
}

TEST(LogisticPwl, MidpointIsHalf)
{
    EXPECT_NEAR(logisticPwl(0.0), 0.5, 0.01);
}

TEST(LogisticPwlFix, MatchesUnitReference)
{
    // Every Q6.10 input: BIST leaves a clean activation unit
    // undriven because its reference function equals the compare's.
    const PwlTable &t = logisticPwlTable();
    for (int raw = -32768; raw <= 32767; ++raw) {
        Fix16 x = Fix16::fromRaw(static_cast<int16_t>(raw));
        ASSERT_EQ(logisticPwlFix(x).raw(), sigmoidUnitRef(t, x).raw())
            << "raw input " << raw;
    }
}

TEST(LogisticPwlTable, SlopesNonNegative)
{
    for (const PwlSegment &s : logisticPwlTable())
        EXPECT_GE(s.a.toDouble(), 0.0);
}

} // namespace
} // namespace dtann
