/**
 * @file
 * Tests for the fault-cone analysis feeding the pruned evaluators:
 * the production cell closure against the gate-level reference
 * closure (reference_cone.hh), step for step, and the properties the
 * pruned evaluators rest on.
 */

#include <gtest/gtest.h>

#include <string>

#include "circuit/evaluator.hh"
#include "circuit/fault_cone.hh"
#include "common/rng.hh"
#include "reference_cone.hh"
#include "rtl/adder.hh"
#include "rtl/fault_inject.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {
namespace {

TEST(FaultCone, EmptyFaultSetIsInvalid)
{
    Netlist nl = buildRippleAdder(4, FaStyle::Nand9, true);
    FaultCone cone = computeFaultCone(nl, FaultSet{});
    EXPECT_FALSE(cone.valid);
}

TEST(FaultCone, FeedbackNetlistIsInvalid)
{
    Netlist nl = buildLatchRegister(4);
    ASSERT_TRUE(nl.hasFeedback());
    FaultSet faults;
    faults.stuckAt.push_back({0, -1, true});
    FaultCone cone = computeFaultCone(nl, faults);
    EXPECT_FALSE(cone.valid);
}

TEST(FaultCone, ActiveGatesAreClosedUnderFanIn)
{
    // Every active gate's input drivers must themselves be active:
    // the pruned sweep evaluates only the active gates, so any net
    // an active gate reads must have a simulated (or primary-input)
    // value. The list must also be ascending = topological. Checked
    // on the gate-level closure, which the cell closure must match
    // (CellClosureMatchesGateClosure).
    Netlist nl = buildMultiplierUnsigned(6, FaStyle::Nand9);
    Rng rng(11);
    for (int trial = 0; trial < 25; ++trial) {
        Injection inj = injectTransistorDefects(nl, 2, rng);
        ReferenceCone cone = referenceFaultCone(nl, inj.faults);
        ASSERT_TRUE(cone.valid);
        ASSERT_FALSE(cone.activeGates.empty());
        EXPECT_GE(cone.activeGates.size(), cone.coneSize);

        std::vector<uint8_t> active(nl.numGates(), 0);
        uint32_t prev = 0;
        for (size_t i = 0; i < cone.activeGates.size(); ++i) {
            uint32_t gi = cone.activeGates[i];
            if (i > 0) {
                EXPECT_GT(gi, prev);
            }
            prev = gi;
            active[gi] = 1;
        }
        std::vector<uint32_t> driver(nl.numNets(), UINT32_MAX);
        for (size_t gi = 0; gi < nl.numGates(); ++gi)
            driver[nl.gate(gi).out] = static_cast<uint32_t>(gi);
        for (uint32_t gi : cone.activeGates) {
            const Gate &g = nl.gate(gi);
            for (int i = 0; i < g.arity(); ++i) {
                uint32_t d = driver[g.in[i]];
                if (d != UINT32_MAX) {
                    EXPECT_TRUE(active[d])
                        << "gate " << gi << " reads un-simulated net";
                }
            }
        }
    }
}

/** Expect the cell closure of @p faults on @p nl to equal the
 *  gate-level closure: steps, active count, cone size, mask. */
void
expectSameClosure(const Netlist &nl, const FaultSet &faults)
{
    FaultCone got = computeFaultCone(nl, faults);
    ReferenceCone want = referenceFaultCone(nl, faults);
    ASSERT_EQ(got.valid, want.valid);
    if (!want.valid)
        return;
    ASSERT_EQ(got.steps, referencePrunedSteps(want.activeGates, faults, nl));
    ASSERT_EQ(got.activeCount, want.activeGates.size());
    ASSERT_EQ(got.coneSize, want.coneSize);
    ASSERT_EQ(got.outputMask, want.outputMask);
}

TEST(FaultCone, CellClosureMatchesGateClosure)
{
    std::vector<std::pair<std::string, Netlist>> nets;
    for (FaStyle s : {FaStyle::Nand9, FaStyle::Mirror}) {
        std::string tag = std::string("/") + faStyleName(s);
        nets.emplace_back("multiplier" + tag, buildMultiplierSigned(16, s));
        nets.emplace_back("adder" + tag, buildRippleAdder(24, s, false));
        nets.emplace_back("sigmoid" + tag,
                          buildSigmoidUnit(logisticPwlTable(), s));
    }
    Rng rng(2026);
    size_t injections = 0;
    for (const auto &[name, nl] : nets) {
        SCOPED_TRACE(name);
        ASSERT_NE(nl.cellIndex(), nullptr);
        // One stuck-at and one override on every gate.
        for (uint32_t gi = 0; gi < nl.numGates(); ++gi) {
            SCOPED_TRACE("gate " + std::to_string(gi));
            FaultSet stuck;
            // The output or one input, by turns, stuck at 0 or 1.
            int arity = nl.gate(gi).arity();
            int input = static_cast<int>(gi % static_cast<uint32_t>(arity + 1)) - 1;
            stuck.stuckAt.push_back(
                {gi, static_cast<int8_t>(input), (gi & 1) != 0});
            expectSameClosure(nl, stuck);
            FaultSet flip;
            flip.overrides[gi] = flipped(nl, gi, gi / 3);
            expectSameClosure(nl, flip);
            if (testing::Test::HasFatalFailure())
                return;
        }
        // Random transistor injections of 1-5 defects.
        for (int trial = 0; trial < 100; ++trial) {
            int count = 1 + static_cast<int>(rng.nextUint(5));
            Injection inj = injectTransistorDefects(nl, count, rng);
            SCOPED_TRACE("trial " + std::to_string(trial));
            expectSameClosure(nl, inj.faults);
            ++injections;
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_GE(injections, 500u);

    // A netlist without an index closes gate by gate, as one
    // ineligible cell: its steps are the active gates.
    Netlist indexed = buildRippleAdder(8, FaStyle::Mirror, true);
    Netlist bare = bareCopy(indexed);
    ASSERT_EQ(bare.cellIndex(), nullptr);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE("hand-built, trial " + std::to_string(trial));
        Injection inj = injectTransistorDefects(
            indexed, 1 + static_cast<int>(rng.nextUint(5)), rng);
        expectSameClosure(bare, inj.faults);
        FaultCone cone = computeFaultCone(bare, inj.faults);
        EXPECT_EQ(cone.steps, referenceFaultCone(bare, inj.faults).activeGates);
    }
    FaultSet latch_faults;
    latch_faults.stuckAt.push_back({0, -1, true});
    expectSameClosure(buildLatchRegister(4), latch_faults);
}

TEST(FaultCone, OutOfConeOutputsAreClean)
{
    // The semantic guarantee behind output splicing: for every
    // input vector, output bits outside the cone's mask are
    // bit-identical between the faulty and the clean netlist.
    Netlist nl = buildRippleAdder(4, FaStyle::Nand9, true);
    Rng rng(7);
    for (int trial = 0; trial < 25; ++trial) {
        Injection inj = injectTransistorDefects(nl, 1, rng);
        FaultCone cone = computeFaultCone(nl, inj.faults);
        ASSERT_TRUE(cone.valid);

        Evaluator clean(nl);
        Evaluator faulty(nl, inj.faults);
        for (uint64_t v = 0; v < 256; ++v) {
            uint64_t c = clean.evaluateBits(v);
            uint64_t f = faulty.evaluateBits(v);
            EXPECT_EQ(c & ~cone.outputMask, f & ~cone.outputMask)
                << "trial " << trial << " vector " << v;
        }
    }
}

TEST(FaultCone, SingleOutputGateFaultHasNarrowCone)
{
    // A stuck-at on the gate driving the carry-out (the netlist's
    // last gate) can only affect outputs fed by that gate.
    Netlist nl = buildRippleAdder(8, FaStyle::Nand9, true);
    uint32_t last = static_cast<uint32_t>(nl.numGates() - 1);
    FaultSet faults;
    faults.stuckAt.push_back({last, -1, true});
    FaultCone cone = computeFaultCone(nl, faults);
    ASSERT_TRUE(cone.valid);
    // The fanout cone is small even though the support reaches back
    // through the whole carry chain.
    EXPECT_LT(cone.coneSize, nl.numGates() / 2);
    EXPECT_NE(cone.outputMask, 0u);
}

} // namespace
} // namespace dtann
