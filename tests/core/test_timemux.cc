/**
 * @file
 * Tests for partial time-multiplexing of oversized networks.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "core/injector.hh"
#include "core/timemux.hh"

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

/** Random weights for a topology. */
DeepWeights
randomWeights(MlpTopology topo, uint64_t seed, double range = 1.5)
{
    DeepWeights w(topo);
    Rng rng(seed);
    w.initRandom(rng, range);
    return w;
}

TEST(TimeMux, FittingNetworkMatchesFixedMlpBitExact)
{
    MlpTopology topo{10, 4, 3};
    Accelerator accel(smallArray(), {10, 4, 3});
    TimeMuxedMlp mux(accel, topo);
    FixedMlp ref(topo);
    DeepWeights w = randomWeights(topo, 5);
    mux.setWeights(w);
    ref.setWeights(w);
    Rng rng(6);
    for (int t = 0; t < 30; ++t) {
        std::vector<double> in(10);
        for (double &v : in)
            v = rng.nextDouble();
        EXPECT_EQ(mux.forward(in).output(), ref.forward(in).output());
    }
}

TEST(TimeMux, MoreHiddenNeuronsThanPhysical)
{
    // 9 hidden neurons on 4 physical ones: 3 batches.
    MlpTopology topo{10, 9, 3};
    Accelerator accel(smallArray(), {10, 4, 3});
    TimeMuxedMlp mux(accel, topo);
    FixedMlp ref(topo);
    DeepWeights w = randomWeights(topo, 7);
    mux.setWeights(w);
    ref.setWeights(w);
    Rng rng(8);
    for (int t = 0; t < 20; ++t) {
        std::vector<double> in(10);
        for (double &v : in)
            v = rng.nextDouble();
        EXPECT_EQ(mux.forward(in).output(), ref.forward(in).output());
        EXPECT_EQ(mux.forward(in).hidden(), ref.forward(in).hidden());
    }
}

TEST(TimeMux, OversizedFaninUsesChunkAccumulation)
{
    // 30 inputs on a 12-input array: 3 chunks + activation pass.
    MlpTopology topo{30, 4, 2};
    Accelerator accel(smallArray(), {12, 4, 3});
    TimeMuxedMlp mux(accel, topo);
    FixedMlp ref(topo);
    DeepWeights w = randomWeights(topo, 9, 0.8);
    mux.setWeights(w);
    ref.setWeights(w);
    Rng rng(10);
    for (int t = 0; t < 20; ++t) {
        std::vector<double> in(30);
        for (double &v : in)
            v = rng.nextDouble();
        EXPECT_EQ(mux.forward(in).output(), ref.forward(in).output());
    }
}

TEST(TimeMux, PassCounting)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    // Fits entirely: hidden 1 batch x 1 pass + output 1 x 1.
    TimeMuxedMlp fit(accel, {12, 4, 3});
    EXPECT_EQ(fit.passesPerRow(), 2u);
    // 9 hidden on 4 physical: 3 batches; outputs 3: 1 batch.
    TimeMuxedMlp tall(accel, {12, 9, 3});
    EXPECT_EQ(tall.passesPerRow(), 3u + 1u);
    // 30 inputs: 3 chunks + 1 activation pass per batch.
    TimeMuxedMlp wide(accel, {30, 4, 2});
    EXPECT_EQ(wide.passesPerRow(), 4u + 1u);
}

TEST(TimeMux, MuxFactorGrowsWithNetwork)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    TimeMuxedMlp small(accel, {12, 4, 3});
    TimeMuxedMlp large(accel, {12, 16, 8});
    EXPECT_LT(small.muxFactor(), large.muxFactor());
    EXPECT_EQ(large.muxFactor(), 6); // (16+8)/4
}

TEST(TimeMux, DefectAffectsManyLogicalNeurons)
{
    // The paper's defect-multiplication effect: one faulty
    // physical neuron corrupts every logical neuron mapped to it.
    MlpTopology topo{10, 12, 3};
    Accelerator accel(smallArray(), {10, 4, 3});
    TimeMuxedMlp mux(accel, topo);
    FixedMlp ref(topo);
    DeepWeights w = randomWeights(topo, 11);
    mux.setWeights(w);
    ref.setWeights(w);

    Rng rng(12);
    // A stuck activation on physical hidden neuron 1.
    UnitSite site{UnitKind::Activation, Layer::Hidden, 1, 0};
    accel.injectDefects(site, 25, rng);

    std::vector<double> in(10, 0.7);
    Activations faulty = mux.forward(in);
    Activations clean = ref.forward(in);
    // Logical hidden neurons 1, 5, 9 all ride physical neuron 1.
    int corrupted = 0;
    for (int j : {1, 5, 9})
        if (faulty.hidden()[static_cast<size_t>(j)] !=
            clean.hidden()[static_cast<size_t>(j)])
            ++corrupted;
    // A heavy activation fault corrupts most mapped neurons.
    EXPECT_GE(corrupted, 2) << "defect multiplication not observed";
}

TEST(TimeMux, WeightReloadTrafficScalesWithPasses)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    TimeMuxedMlp small(accel, {12, 4, 3});
    TimeMuxedMlp large(accel, {30, 16, 8});
    EXPECT_LT(small.weightWordsPerRow(), large.weightWordsPerRow());
}

} // namespace
} // namespace dtann
