/**
 * @file
 * Cross-module edge cases and death tests.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "ann/fixed_mlp.hh"
#include "ann/hyper.hh"
#include "core/campaign.hh"
#include "core/injector.hh"
#include "core/timemux.hh"
#include "core/yield.hh"

namespace dtann {
namespace {

TEST(EdgeCases, DatasetValidateCatchesBadLabels)
{
    Dataset ds;
    ds.name = "bad";
    ds.numAttributes = 1;
    ds.numClasses = 2;
    ds.rows = {{0.1}};
    ds.labels = {5};
    EXPECT_DEATH(ds.validate(), "label out of range");
}

TEST(EdgeCases, DatasetValidateCatchesArityMismatch)
{
    Dataset ds;
    ds.name = "bad";
    ds.numAttributes = 2;
    ds.numClasses = 2;
    ds.rows = {{0.1}};
    ds.labels = {0};
    EXPECT_DEATH(ds.validate(), "wrong arity");
}

TEST(EdgeCases, Fig5MirrorStyleKeepsOrdering)
{
    // The transistor-vs-gate ordering holds for the complex-gate
    // implementation too.
    Fig5Config cfg;
    cfg.op = Fig5Operator::Adder4;
    cfg.defects = 20;
    cfg.repetitions = 40;
    cfg.seed = 9;
    cfg.style = FaStyle::Mirror;
    Fig5Result r = runFig5(cfg);
    EXPECT_GT(r.gate.totalVariation(r.none),
              r.trans.totalVariation(r.none));
}

TEST(EdgeCases, InjectorPoolWithOnlyActivations)
{
    AcceleratorConfig cfg;
    cfg.inputs = 6;
    cfg.hidden = 3;
    cfg.outputs = 2;
    Accelerator accel(cfg, {6, 3, 2});
    SitePool pool;
    pool.latches = pool.multipliers = pool.adders = false;
    pool.activations = true;
    pool.hiddenLayer = pool.outputLayer = true;
    DefectInjector inj(accel, pool);
    EXPECT_EQ(inj.eligibleUnits(), 5u);
    Rng rng(2);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(inj.randomSite(rng).kind, UnitKind::Activation);
}

TEST(EdgeCases, TimeMuxSingleNeuronLayers)
{
    // Degenerate 1-wide layers batch correctly.
    AcceleratorConfig cfg;
    cfg.inputs = 6;
    cfg.hidden = 3;
    cfg.outputs = 2;
    Accelerator accel(cfg, {6, 3, 2});
    TimeMuxedMlp mux(accel, {6, 1, 1});
    DeepWeights w({{6, 1, 1}});
    Rng rng(4);
    w.initRandom(rng, 1.0);
    mux.setWeights(w);
    FixedMlp ref({6, 1, 1});
    ref.setWeights(w);
    std::vector<double> in(6, 0.5);
    EXPECT_EQ(mux.forward(in).output(), ref.forward(in).output());
}

TEST(EdgeCases, YieldWithSinglePointCurve)
{
    Fig10Curve c;
    c.task = "one";
    c.points.push_back({0, 0.9, 0.0});
    EXPECT_DOUBLE_EQ(interpolateAccuracy(c, 0), 0.9);
    EXPECT_DOUBLE_EQ(interpolateAccuracy(c, 50), 0.9);
    YieldPoint y = effectiveYield(c, 9.02, 100.0, 0.8);
    EXPECT_DOUBLE_EQ(y.effectiveYield, 1.0);
}

TEST(EdgeCases, AcceleratorBiasOnlyNetwork)
{
    // All-zero inputs: only bias synapses drive the neurons.
    AcceleratorConfig cfg;
    cfg.inputs = 4;
    cfg.hidden = 2;
    cfg.outputs = 2;
    MlpTopology topo{4, 2, 2};
    Accelerator accel(cfg, topo);
    DeepWeights w(topo);
    w.at(0, 0, 4) = 4.0;  // bias -> hidden 0 saturates high
    w.at(0, 1, 4) = -4.0; // hidden 1 low
    w.at(1, 0, 2) = 2.0;  // output biases
    w.at(1, 1, 2) = -2.0;
    accel.setWeights(w);
    Activations act = accel.forward(std::vector<double>(4, 0.0));
    EXPECT_GT(act.hidden()[0], 0.95);
    EXPECT_LT(act.hidden()[1], 0.05);
    EXPECT_GT(act.output()[0], 0.8);
    EXPECT_LT(act.output()[1], 0.2);
}

TEST(EdgeCases, InjectingIntoAllUnitsOfATinyArrayStillRuns)
{
    // Saturate a tiny array with defects everywhere; the model must
    // stay well-formed (outputs in range) even if useless.
    AcceleratorConfig cfg;
    cfg.inputs = 3;
    cfg.hidden = 2;
    cfg.outputs = 2;
    Accelerator accel(cfg, {3, 2, 2});
    DefectInjector inj(accel, SitePool::all());
    Rng rng(7);
    inj.inject(60, rng);
    DeepWeights w({{3, 2, 2}});
    w.initRandom(rng, 1.0);
    accel.setWeights(w);
    Activations act = accel.forward(std::vector<double>{0.2, 0.5, 0.8});
    for (double y : act.output()) {
        EXPECT_GE(y, -32.0);
        EXPECT_LE(y, 32.0);
    }
}

TEST(EdgeCases, HyperSpaceSingletonGrid)
{
    HyperSpace s;
    s.hidden = {4};
    s.epochs = {20};
    s.learningRate = {0.3};
    s.momentum = {0.1};
    Rng gen(5);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 60);
    Rng rng(6);
    HyperResult r = gridSearch(ds, s, 2, rng);
    EXPECT_EQ(r.evaluated, 1u);
    EXPECT_EQ(r.best.hidden, 4);
}

} // namespace
} // namespace dtann
