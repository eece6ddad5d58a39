/**
 * @file
 * Tests for deep networks executed on the physical array.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "ann/trainer.hh"
#include "core/deep_mux.hh"
#include "core/injector.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

TEST(DeepMux, TwoStageStackMatchesFixedMlp)
{
    // An {in, h, out} deep stack on the array must be bit-exact
    // against the fixed-point 2-layer reference.
    DeepTopology t{{10, 4, 3}};
    Accelerator accel(smallArray(), {10, 4, 3});
    DeepMuxedNetwork deep(accel, t);
    FixedMlp ref({10, 4, 3});

    DeepWeights dw(t);
    Rng rng(3);
    dw.initRandom(rng, 1.2);
    deep.setWeights(dw);
    ref.setWeights(dw);

    for (int tcase = 0; tcase < 25; ++tcase) {
        std::vector<double> in(10);
        for (double &v : in)
            v = rng.nextDouble();
        Activations acts = deep.forward(in);
        Activations r = ref.forward(in);
        EXPECT_EQ(acts.output(), r.output());
    }
}

TEST(DeepMux, ThreeHiddenLayersRun)
{
    DeepTopology t{{12, 9, 7, 5, 3}};
    Accelerator accel(smallArray(), {12, 4, 3});
    DeepMuxedNetwork deep(accel, t);
    DeepWeights w(t);
    Rng rng(5);
    w.initRandom(rng, 1.0);
    deep.setWeights(w);
    std::vector<double> in(12, 0.5);
    Activations act = deep.forward(in);
    ASSERT_EQ(act.layers.size(), 4u);
    EXPECT_EQ(act.layers[0].size(), 9u);
    EXPECT_EQ(act.layers[3].size(), 3u);
    for (const auto &layer : act.layers)
        for (double y : layer) {
            EXPECT_GE(y, 0.0);
            EXPECT_LE(y, 1.0 + 1e-9);
        }
}

TEST(DeepMux, PassCountSumsOverStages)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    // Layers: 9 neurons/fanin 12 -> 3 batches; 7/9 -> 2; 5/7 -> 2;
    // 3/5 -> 1. All fan-ins fit (<=12): 1 pass per batch.
    DeepMuxedNetwork deep(accel, DeepTopology{{12, 9, 7, 5, 3}});
    EXPECT_EQ(deep.passesPerRow(), 3u + 2u + 2u + 1u);
}

TEST(DeepMux, TrainsOnIris)
{
    Rng gen(13);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 120);
    AcceleratorConfig cfg;
    cfg.inputs = 8;
    cfg.hidden = 4;
    cfg.outputs = 3;
    Accelerator accel(cfg, {8, 4, 3});
    DeepMuxedNetwork deep(accel, DeepTopology{{4, 6, 5, 3}});
    Trainer trainer({5, 60, 0.3, 0.2});
    Rng rng(7);
    trainer.train(deep, ds, rng);
    EXPECT_GT(evalAccuracy(deep, ds), 0.8);
}

TEST(DeepMux, PhysicalDefectTouchesMultipleLayers)
{
    // One faulty physical activation is reused by every logical
    // layer batch that maps onto it.
    DeepTopology t{{12, 8, 8, 3}};
    Accelerator accel(smallArray(), {12, 4, 3});
    DeepMuxedNetwork deep(accel, t);
    FloatMlp ref(t);
    DeepWeights w(t);
    Rng rng(17);
    w.initRandom(rng, 1.0);
    deep.setWeights(w);
    ref.setWeights(w);

    UnitSite site{UnitKind::Activation, Layer::Hidden, 1, 0};
    accel.injectDefects(site, 25, rng);

    std::vector<double> in(12, 0.6);
    Activations faulty = deep.forward(in);
    Activations clean = ref.forward(in);
    int corrupted_layers = 0;
    for (size_t s = 0; s < faulty.layers.size(); ++s) {
        for (size_t j = 0; j < faulty.layers[s].size(); ++j)
            if (std::abs(faulty.layers[s][j] - clean.layers[s][j]) >
                0.25) {
                ++corrupted_layers;
                break;
            }
    }
    EXPECT_GE(corrupted_layers, 2)
        << "defect should propagate across stacked layers";
}

TEST(DeepMux, CountersAggregateAcceleratorWork)
{
    DeepTopology t{{12, 8, 8, 3}};
    Accelerator accel(smallArray(), {12, 4, 3});
    DeepMuxedNetwork deep(accel, t);
    DeepWeights w(t);
    Rng rng(23);
    w.initRandom(rng, 1.0);
    deep.setWeights(w);
    UnitSite site{UnitKind::Multiplier, Layer::Hidden, 0, 2};
    accel.injectDefects(site, 10, rng);

    EXPECT_EQ(deep.simCounters().gateEvals, 0u);
    std::vector<double> in(12, 0.4);
    deep.forward(in);
    SimCounters after = deep.simCounters();
    EXPECT_GT(after.gateEvals, 0u);
    EXPECT_EQ(after.gateEvals, accel.simCounters().gateEvals);
}

} // namespace
} // namespace dtann
