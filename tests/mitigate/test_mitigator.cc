/**
 * @file
 * Mitigation strategies: remap planning, bypass bookkeeping, and
 * the Mitigator interface contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "ann/trainer.hh"
#include "core/campaign.hh"
#include "data/synth_uci.hh"
#include "mitigate/mitigator.hh"

namespace dtann {
namespace {

/** Shared tiny task: iris on a 16x8x6 array (3 spare output rows). */
struct Fixture
{
    AcceleratorConfig array;
    MlpTopology logical;
    Dataset ds;
    Hyper hyper{6, 40, 0.2, 0.1};
    DeepWeights baseline;

    Fixture() : logical{4, 6, 3}, baseline(logical)
    {
        array.inputs = 16;
        array.hidden = 8;
        array.outputs = 6;
        Rng rng(101);
        ds = makeSyntheticTask(uciTask("iris"), rng, 90);
        Accelerator accel(array, logical);
        Rng trng(102);
        baseline = Trainer(hyper).train(accel, ds, trng);
    }

    MitigationSetup setup()
    {
        BistConfig bist;
        bist.vectorsPerUnit = 16;
        return MitigationSetup{array, logical, ds,
                               retrainHyper(hyper, 0.3),
                               baseline,  2,      bist};
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
injectNothing(HardwareBackend &)
{
}

/** Heavy defects: every drawn unit gets 14 extra transistor faults. */
std::function<void(HardwareBackend &)>
heavyInjector(int count, uint64_t seed,
              SitePool pool = SitePool::all())
{
    return [count, seed, pool](HardwareBackend &accel) {
        Rng rng(seed);
        DefectInjector inj(accel, pool);
        inj.inject(count, rng);
        for (const UnitSite &s : accel.faultySites())
            accel.injectDefects(s, 14, rng);
    };
}

TEST(Strategy, NamesAreStable)
{
    EXPECT_STREQ(strategyName(Strategy::NoOp), "noop");
    EXPECT_STREQ(strategyName(Strategy::RetrainOnly), "retrain");
    EXPECT_STREQ(strategyName(Strategy::BypassFaulty), "bypass");
    EXPECT_STREQ(strategyName(Strategy::RemapToSpares), "remap");
    EXPECT_STREQ(strategyName(Strategy::ClampActivations), "clamp");
    EXPECT_STREQ(strategyName(Strategy::ReplicateCritical),
                 "replicate");
}

TEST(Strategy, AllStrategiesEnumeratesEveryName)
{
    EXPECT_EQ(allStrategies().size(), 6u);
    // The list drives the default campaign racing order and the
    // spec parser; every entry must round-trip through its name.
    for (Strategy s : allStrategies()) {
        Strategy parsed;
        ASSERT_TRUE(strategyFromName(strategyName(s), parsed));
        EXPECT_EQ(parsed, s);
    }
    EXPECT_EQ(strategyNameList(),
              "noop, retrain, bypass, remap, clamp, replicate");
    Strategy unused;
    EXPECT_FALSE(strategyFromName("pray", unused));
}

TEST(Strategy, FactoryRoundTrips)
{
    for (Strategy s : allStrategies()) {
        auto m = makeMitigator(s);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->kind(), s);
        EXPECT_EQ(m->name(), strategyName(s));
    }
}

TEST(PlanOutputRemap, CleanMapIsIdentity)
{
    Fixture &f = fixture();
    RowPlan plan = planOutputRemap(DefectMap(), f.logical, f.array);
    EXPECT_EQ(plan, (RowPlan{{0}, {1}, {2}}));
}

TEST(PlanOutputRemap, FaultyRowMovesToLowestCleanSpare)
{
    Fixture &f = fixture();
    DefectMap map;
    map.markSuspect({UnitKind::AdderStage, Layer::Output, 1, 0});
    EXPECT_EQ(planOutputRemap(map, f.logical, f.array),
              (RowPlan{{0}, {3}, {2}}));

    // A faulty spare is skipped in favour of the next clean one.
    map.markSuspect({UnitKind::Activation, Layer::Output, 3, 0});
    EXPECT_EQ(planOutputRemap(map, f.logical, f.array),
              (RowPlan{{0}, {4}, {2}}));

    // Hidden-layer suspects do not trigger output remapping.
    DefectMap hidden_only;
    hidden_only.markSuspect({UnitKind::Multiplier, Layer::Hidden, 1, 2});
    EXPECT_EQ(planOutputRemap(hidden_only, f.logical, f.array),
              (RowPlan{{0}, {1}, {2}}));
}

TEST(PlanOutputRemap, DegradesGracefullyWhenSparesExhausted)
{
    Fixture &f = fixture();
    DefectMap map; // every physical output row faulty
    for (int n = 0; n < f.array.outputs; ++n)
        map.markSuspect({UnitKind::Activation, Layer::Output, n, 0});
    // No clean spare exists: faulty rows keep their position.
    EXPECT_EQ(planOutputRemap(map, f.logical, f.array),
              (RowPlan{{0}, {1}, {2}}));
}

TEST(RemappedOutputMlp, CleanForwardIsInvariantToRowChoice)
{
    Fixture &f = fixture();
    MlpTopology full = fullRowTopology(f.logical, f.array);
    EXPECT_EQ(full.outputs, f.array.outputs);

    Accelerator accel(f.array, full);
    RowMappedMlp identity(accel, f.logical, {{0}, {1}, {2}});
    RowMappedMlp steered(accel, f.logical, {{3}, {1}, {5}});
    EXPECT_EQ(identity.spareRowsUsed(), 0);
    EXPECT_EQ(steered.spareRowsUsed(), 2);

    Rng rng(7);
    std::vector<double> in(4);
    for (int trial = 0; trial < 10; ++trial) {
        for (double &v : in)
            v = rng.nextDouble();
        identity.setWeights(f.baseline);
        Activations a = identity.forward(in);
        steered.setWeights(f.baseline);
        Activations b = steered.forward(in);
        // On a defect-free array a spare row computes exactly what
        // the original row would have.
        EXPECT_EQ(a.output(), b.output());
    }
}

TEST(Mitigator, NoOpOnCleanArrayMatchesBaseline)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(11);
    MitigationOutcome out =
        makeMitigator(Strategy::NoOp)->run(setup, injectNothing, rng);

    Accelerator accel(f.array, f.logical);
    accel.setWeights(f.baseline);
    EXPECT_DOUBLE_EQ(out.accuracy, evalAccuracy(accel, f.ds));
    EXPECT_DOUBLE_EQ(out.coverage, 1.0);
    EXPECT_EQ(out.diagnosed, 0);
    EXPECT_EQ(out.mitigatedUnits, 0);
    EXPECT_GT(out.accuracy, 0.6) << "baseline should learn iris";
}

TEST(Mitigator, RetrainOnlyHandlesCleanAndFaultyArrays)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(13);
    MitigationOutcome clean = makeMitigator(Strategy::RetrainOnly)
                                  ->run(setup, injectNothing, rng);
    EXPECT_GT(clean.accuracy, 0.6);

    Rng rng2(13);
    MitigationOutcome faulty =
        makeMitigator(Strategy::RetrainOnly)
            ->run(setup, heavyInjector(3, 77), rng2);
    EXPECT_GE(faulty.accuracy, 0.0);
    EXPECT_LE(faulty.accuracy, 1.0);
}

TEST(Mitigator, BypassReportsDiagnosisAndBypassCounts)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(17);
    MitigationOutcome out =
        makeMitigator(Strategy::BypassFaulty)
            ->run(setup, heavyInjector(4, 78), rng);
    EXPECT_GT(out.diagnosed, 0)
        << "heavy defects must show up in the map";
    EXPECT_GE(out.coverage, 0.0);
    EXPECT_LE(out.coverage, 1.0);
    // Output-layer activations are never bypassed, so the bypass
    // count can undershoot the diagnosis count but never exceed it.
    EXPECT_LE(out.mitigatedUnits, out.diagnosed);
    EXPECT_GE(out.accuracy, 0.0);
    EXPECT_LE(out.accuracy, 1.0);
}

TEST(Mitigator, RemapSteersDiagnosedOutputRows)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(19);
    // Deterministically destroy logical output row 1's activation.
    auto inject = [](HardwareBackend &accel) {
        Rng ir(79);
        accel.injectDefects({UnitKind::Activation, Layer::Output, 1, 0},
                            15, ir);
    };
    MitigationOutcome out =
        makeMitigator(Strategy::RemapToSpares)->run(setup, inject, rng);
    EXPECT_GT(out.diagnosed, 0);
    EXPECT_GE(out.mitigatedUnits, 1)
        << "a diagnosed output row should be remapped to a spare";
    EXPECT_GE(out.accuracy, 0.0);
    EXPECT_LE(out.accuracy, 1.0);
}

TEST(PruneMask, MapsBypassedUnitsToLogicalSynapses)
{
    Fixture &f = fixture();
    Accelerator accel(f.array, f.logical);

    // A hidden-layer multiplier prunes its own synapse; the physical
    // bias column (index == cfg.inputs) maps to the logical bias.
    accel.bypassUnit({UnitKind::Multiplier, Layer::Hidden, 1, 2});
    accel.bypassUnit({UnitKind::WeightLatch, Layer::Hidden, 1,
                      f.array.inputs});
    // Output adder stage t accumulates synapse t+1's product.
    accel.bypassUnit({UnitKind::AdderStage, Layer::Output, 0, 1});
    // A silenced hidden neuron prunes every output synapse reading it.
    accel.bypassUnit({UnitKind::Activation, Layer::Hidden, 3, 0});
    // Physical rows beyond the logical mapping carry no weight.
    accel.bypassUnit({UnitKind::Multiplier, Layer::Hidden, 7, 0});
    // Synapses beyond the logical fan-in (but not the bias) are
    // zero-weight padding.
    accel.bypassUnit({UnitKind::Multiplier, Layer::Hidden, 0, 9});

    std::vector<PrunedSynapse> mask =
        pruneMaskForBypasses(accel, f.logical);
    std::vector<PrunedSynapse> expect = {
        {0, 1, 2},
        {0, 1, f.logical.inputs}, // bias
        {1, 0, 2},
        {1, 0, 3},
        {1, 1, 3},
        {1, 2, 3},
    };
    auto key = [](const PrunedSynapse &p) {
        return std::tuple<size_t, int, int>{p.stage, p.neuron, p.input};
    };
    std::sort(expect.begin(), expect.end(),
              [&](const PrunedSynapse &a, const PrunedSynapse &b) {
                  return key(a) < key(b);
              });
    ASSERT_EQ(mask.size(), expect.size());
    for (size_t i = 0; i < mask.size(); ++i)
        EXPECT_EQ(mask[i], expect[i]) << "entry " << i;
}

TEST(Mitigator, ClampProfilesCleanRangeAndStaysBlind)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(23);
    MitigationOutcome clean =
        makeMitigator(Strategy::ClampActivations)
            ->run(setup, injectNothing, rng);
    // Blind strategy: no diagnosis, every physical activation unit
    // carries a comparator pair.
    EXPECT_DOUBLE_EQ(clean.coverage, 1.0);
    EXPECT_EQ(clean.diagnosed, 0);
    EXPECT_EQ(clean.mitigatedUnits, f.array.hidden + f.array.outputs);
    EXPECT_GT(clean.accuracy, 0.6)
        << "clamping the clean range must not break a clean array";

    Rng rng2(23);
    MitigationOutcome faulty =
        makeMitigator(Strategy::ClampActivations)
            ->run(setup, heavyInjector(4, 81), rng2);
    EXPECT_GE(faulty.accuracy, 0.0);
    EXPECT_LE(faulty.accuracy, 1.0);
}

TEST(Mitigator, ReplicateRecruitsSparesForDiagnosedOutputs)
{
    Fixture &f = fixture();
    MitigationSetup setup = f.setup();
    Rng rng(29);
    // Deterministically destroy logical output row 1's activation.
    auto inject = [](HardwareBackend &accel) {
        Rng ir(83);
        accel.injectDefects({UnitKind::Activation, Layer::Output, 1, 0},
                            15, ir);
    };
    MitigationOutcome out =
        makeMitigator(Strategy::ReplicateCritical)
            ->run(setup, inject, rng);
    EXPECT_GT(out.diagnosed, 0);
    EXPECT_GE(out.mitigatedUnits, 1)
        << "a diagnosed output row should recruit spare copies";
    EXPECT_LE(out.mitigatedUnits, 2) << "one faulty row, two spares max";
    EXPECT_GE(out.accuracy, 0.0);
    EXPECT_LE(out.accuracy, 1.0);
}

} // namespace
} // namespace dtann
