/**
 * @file
 * Smoke tests of the figure campaigns at tiny scale.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/campaign.hh"

namespace dtann {
namespace {

Fig5Config
fig5Config(Fig5Operator op, int defects, int repetitions, uint64_t seed)
{
    Fig5Config cfg;
    cfg.op = op;
    cfg.defects = defects;
    cfg.repetitions = repetitions;
    cfg.seed = seed;
    return cfg;
}

TEST(Fig5, CleanDistributionIsExactConvolution)
{
    Fig5Result r =
        runFig5(fig5Config(Fig5Operator::Adder4, 1, 2, 1));
    // Each repetition covers all 256 pairs: value v occurs
    // #\{(a,b): a+b=v\} times per repetition.
    EXPECT_EQ(r.none.total(), 512u);
    EXPECT_EQ(r.none.at(0), 2u);   // only 0+0
    EXPECT_EQ(r.none.at(15), 32u); // 16 pairs x 2 reps
    EXPECT_EQ(r.none.at(30), 2u);  // only 15+15
}

TEST(Fig5, OneDefectBarelyMovesTransistorDistribution)
{
    // Paper: "For 1 defect, the behavior of the 4-bit adder is
    // barely affected."
    Fig5Result r =
        runFig5(fig5Config(Fig5Operator::Adder4, 1, 40, 2));
    EXPECT_LT(r.trans.totalVariation(r.none), 0.10);
}

TEST(Fig5, TwentyDefectsDivergeAndGateModelIsWorse)
{
    // Paper: at 20 defects both models diverge from the clean
    // distribution, and the transistor-level profile stays closer
    // to the error-free profile than the gate-level one.
    Fig5Result r =
        runFig5(fig5Config(Fig5Operator::Adder4, 20, 60, 3));
    double tv_trans = r.trans.totalVariation(r.none);
    double tv_gate = r.gate.totalVariation(r.none);
    EXPECT_GT(tv_trans, 0.05);
    EXPECT_GT(tv_gate, tv_trans)
        << "gate-level faults should distort more";
}

TEST(Fig5, MultiplierConfigurationRuns)
{
    Fig5Result r =
        runFig5(fig5Config(Fig5Operator::Multiplier4, 20, 10, 4));
    EXPECT_EQ(r.none.total(), 2560u);
    EXPECT_EQ(r.none.at(225), 10u); // 15*15 only
    EXPECT_GT(r.trans.total(), 0u);
    EXPECT_GT(r.gate.total(), 0u);
}

TEST(Fig5, BatchAndConePathsAreBitIdenticalToScalar)
{
    // The campaign's 64-lane hot path must reproduce the scalar
    // results exactly: force the scalar path via DTANN_NO_BATCH and
    // compare whole histograms.
    Fig5Config cfg = fig5Config(Fig5Operator::Adder4, 3, 30, 9);
    Fig5Result fast = runFig5(cfg);

    setenv("DTANN_NO_BATCH", "1", 1);
    Fig5Result slow = runFig5(cfg);
    unsetenv("DTANN_NO_BATCH");

    EXPECT_EQ(fast.none.totalVariation(slow.none), 0.0);
    EXPECT_EQ(fast.trans.totalVariation(slow.trans), 0.0);
    EXPECT_EQ(fast.gate.totalVariation(slow.gate), 0.0);
    // The forced run did all its work on the scalar path.
    EXPECT_EQ(slow.sim.batchVectors, 0u);
    EXPECT_GT(fast.sim.batchVectors, 0u);
}

TEST(Fig5, ResultsBitIdenticalAcrossLaneWidths)
{
    // The DTANN_LANES plane-width knob (DESIGN.md §9) is a pure
    // throughput control: whole campaign histograms must not move
    // by a single count across 64/256/512/auto.
    Fig5Config cfg = fig5Config(Fig5Operator::Adder4, 3, 30, 9);
    auto runAt = [&](const char *lanes) {
        if (lanes)
            setenv("DTANN_LANES", lanes, 1);
        else
            unsetenv("DTANN_LANES");
        Fig5Result r = runFig5(cfg);
        unsetenv("DTANN_LANES");
        return r;
    };
    Fig5Result oracle = runAt("64");
    for (const char *lanes :
         {"256", "512", static_cast<const char *>(nullptr)}) {
        Fig5Result r = runAt(lanes);
        EXPECT_EQ(oracle.none.totalVariation(r.none), 0.0);
        EXPECT_EQ(oracle.trans.totalVariation(r.trans), 0.0);
        EXPECT_EQ(oracle.gate.totalVariation(r.gate), 0.0);
    }
}

TEST(Fig10, TinyCampaignShowsToleranceShape)
{
    Fig10Config cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 4};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 7;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;

    auto curves = runFig10(cfg);
    ASSERT_EQ(curves.size(), 1u);
    const Fig10Curve &c = curves[0];
    EXPECT_EQ(c.task, "iris");
    ASSERT_EQ(c.points.size(), 2u);
    EXPECT_EQ(c.points[0].defects, 0);
    // Clean baseline learns the task.
    EXPECT_GT(c.points[0].accuracy, 0.7);
    // A handful of defects after retraining must not collapse the
    // network (the paper's central claim).
    EXPECT_GT(c.points[1].accuracy, 0.5);
}

TEST(Fig11, TinyCampaignProducesAmplitudes)
{
    Fig11Config cfg;
    cfg.tasks = {"iris"};
    cfg.repetitions = 3;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 9;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;

    auto curves = runFig11(cfg);
    ASSERT_EQ(curves.size(), 1u);
    const Fig11Curve &c = curves[0];
    EXPECT_EQ(c.samples.size(), 3u);
    for (const auto &s : c.samples) {
        EXPECT_GE(s.accuracy, 0.0);
        EXPECT_LE(s.accuracy, 1.0);
        EXPECT_FALSE(s.site.empty());
    }
    EXPECT_FALSE(c.binAccuracy.empty());
}

TEST(Fig11, ShardedRunFoldsOnlyItsOwnSamples)
{
    // Shard 0 of 2 owns cells 0 and 2 of 3. Its curve holds exactly
    // those samples, equal to the unsharded run's, and no empty
    // placeholder of the other shard's cell.
    Fig11Config cfg;
    cfg.tasks = {"iris"};
    cfg.repetitions = 3;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 9;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;
    auto full = runFig11(cfg);
    cfg.shardCount = 2;
    cfg.shardIndex = 0;
    auto shard = runFig11(cfg);

    ASSERT_EQ(full.size(), 1u);
    ASSERT_EQ(shard.size(), 1u);
    ASSERT_EQ(full[0].samples.size(), 3u);
    ASSERT_EQ(shard[0].samples.size(), 2u);
    for (size_t k = 0; k < 2; ++k) {
        const Fig11Sample &s = shard[0].samples[k];
        const Fig11Sample &ref = full[0].samples[2 * k];
        EXPECT_FALSE(s.task.empty());
        EXPECT_FALSE(s.site.empty());
        EXPECT_EQ(s.task, ref.task);
        EXPECT_EQ(s.site, ref.site);
        EXPECT_EQ(s.amplitude, ref.amplitude);
        EXPECT_EQ(s.accuracy, ref.accuracy);
    }
}

TEST(HardwareHyper, CapsHiddenAtPhysical)
{
    AcceleratorConfig a; // 10 hidden
    Hyper h = hardwareHyper(uciTask("breast"), a, 1.0); // paper: 14
    EXPECT_EQ(h.hidden, 10);
    Hyper h2 = hardwareHyper(uciTask("wine"), a, 1.0); // paper: 4
    EXPECT_EQ(h2.hidden, 4);
}

TEST(SelectTasks, EmptyMeansAllTen)
{
    EXPECT_EQ(selectTasks({}).size(), 10u);
    auto some = selectTasks({"iris", "wine"});
    ASSERT_EQ(some.size(), 2u);
    EXPECT_EQ(some[0].name, "iris");
    EXPECT_EQ(some[1].name, "wine");
}

TEST(RetrainHyper, ScalesEpochsWithFloorOfOne)
{
    Hyper h;
    h.epochs = 100;
    EXPECT_EQ(retrainHyper(h, 0.25).epochs, 25);
    EXPECT_EQ(retrainHyper(h, 0.0001).epochs, 1);
    // Only the epoch budget changes.
    EXPECT_EQ(retrainHyper(h, 0.25).learningRate, h.learningRate);
    EXPECT_EQ(retrainHyper(h, 0.25).hidden, h.hidden);
}

TEST(HardwareHyper, ScalesEpochs)
{
    AcceleratorConfig a;
    Hyper h = hardwareHyper(uciTask("robot"), a, 0.1); // 1600 -> 160
    EXPECT_EQ(h.epochs, 160);
    Hyper h1 = hardwareHyper(uciTask("iris"), a, 0.001);
    EXPECT_GE(h1.epochs, 1);
}

} // namespace
} // namespace dtann
