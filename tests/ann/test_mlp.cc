/**
 * @file
 * Tests for the float reference model on the 2-layer paper
 * network (deep stacks and weight storage: test_deep.cc).
 */

#include <gtest/gtest.h>

#include "ann/mlp.hh"
#include "ann/sigmoid.hh"

namespace dtann {
namespace {

TEST(FloatMlp, ForwardMatchesManualComputation)
{
    MlpTopology topo{2, 2, 1};
    DeepWeights w(topo);
    w.at(0, 0, 0) = 1.0;
    w.at(0, 0, 1) = -1.0;
    w.at(0, 0, 2) = 0.5;  // bias
    w.at(0, 1, 0) = 2.0;
    w.at(0, 1, 1) = 0.0;
    w.at(0, 1, 2) = -1.0;
    w.at(1, 0, 0) = 1.5;
    w.at(1, 0, 1) = -0.5;
    w.at(1, 0, 2) = 0.25;

    FloatMlp mlp(topo);
    mlp.setWeights(w);
    double x0 = 0.3, x1 = 0.7;
    Activations act = mlp.forward(std::vector<double>{x0, x1});

    double h0 = logistic(1.0 * x0 - 1.0 * x1 + 0.5);
    double h1 = logistic(2.0 * x0 - 1.0);
    double o = logistic(1.5 * h0 - 0.5 * h1 + 0.25);
    ASSERT_EQ(act.hidden().size(), 2u);
    EXPECT_NEAR(act.hidden()[0], h0, 1e-12);
    EXPECT_NEAR(act.hidden()[1], h1, 1e-12);
    ASSERT_EQ(act.output().size(), 1u);
    EXPECT_NEAR(act.output()[0], o, 1e-12);
}

TEST(FloatMlp, OutputsBoundedBySigmoid)
{
    MlpTopology topo{5, 4, 3};
    FloatMlp mlp(topo);
    DeepWeights w(topo);
    Rng rng(2);
    w.initRandom(rng, 5.0);
    mlp.setWeights(w);
    std::vector<double> in{0.1, 0.9, 0.5, 0.0, 1.0};
    Activations act = mlp.forward(in);
    for (double y : act.output()) {
        EXPECT_GT(y, 0.0);
        EXPECT_LT(y, 1.0);
    }
}

TEST(FloatMlp, ZeroWeightsGiveHalfOutputs)
{
    MlpTopology topo{3, 2, 2};
    FloatMlp mlp(topo);
    mlp.setWeights(DeepWeights(topo));
    Activations act = mlp.forward(std::vector<double>{0.2, 0.4, 0.6});
    for (double y : act.output())
        EXPECT_DOUBLE_EQ(y, 0.5);
}

} // namespace
} // namespace dtann
