/**
 * @file
 * Bit-level tests of the fixed-point forward model.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "ann/sigmoid.hh"

namespace dtann {
namespace {

TEST(FixedMlp, QuantizesWeights)
{
    MlpTopology topo{2, 2, 1};
    DeepWeights w(topo);
    w.at(0, 0, 0) = 0.123456; // quantizes to nearest 1/1024
    FixedMlp m(topo);
    m.setWeights(w);
    EXPECT_EQ(m.hidWeight(0, 0).raw(),
              Fix16::fromDouble(0.123456).raw());
}

TEST(FixedMlp, ForwardFixManualCheck)
{
    MlpTopology topo{1, 1, 1};
    DeepWeights w(topo);
    w.at(0, 0, 0) = 2.0;
    w.at(0, 0, 1) = 0.0;
    w.at(1, 0, 0) = 1.0;
    w.at(1, 0, 1) = 0.0;
    FixedMlp m(topo);
    m.setWeights(w);

    std::vector<Fix16> in{Fix16::fromDouble(0.5)};
    auto out = m.forwardFix(in);
    ASSERT_EQ(out.size(), 1u);
    // h = pwl(2 * 0.5) = pwl(1.0); o = pwl(h).
    Fix16 h = logisticPwlFix(Fix16::fromDouble(1.0));
    Fix16 expect = logisticPwlFix(h);
    EXPECT_EQ(out[0].raw(), expect.raw());
}

TEST(FixedMlp, SaturationBeforeActivation)
{
    // Large weights push the accumulator beyond Q6.10: the
    // activation input saturates, the output pins near 1.
    MlpTopology topo{4, 1, 1};
    DeepWeights w(topo);
    for (int i = 0; i < 4; ++i)
        w.at(0, 0, i) = 31.0;
    w.at(1, 0, 0) = 31.0;
    FixedMlp m(topo);
    m.setWeights(w);
    std::vector<double> in{1.0, 1.0, 1.0, 1.0};
    Activations act = m.forward(in);
    EXPECT_NEAR(act.hidden()[0], 1.0, 0.01);
    EXPECT_NEAR(act.output()[0], 1.0, 0.01);
}

TEST(FixedMlp, BiasContributes)
{
    MlpTopology topo{1, 1, 1};
    DeepWeights w(topo);
    w.at(0, 0, 0) = 0.0;
    w.at(0, 0, 1) = 3.0; // bias only
    w.at(1, 0, 0) = 0.0;
    w.at(1, 0, 1) = -3.0;
    FixedMlp m(topo);
    m.setWeights(w);
    Activations act = m.forward(std::vector<double>{0.0});
    EXPECT_NEAR(act.hidden()[0], logistic(3.0), 0.03);
    EXPECT_NEAR(act.output()[0], logistic(-3.0), 0.03);
}

TEST(FixedMlp, AgreesWithFloatWithinQuantization)
{
    MlpTopology topo{6, 4, 3};
    DeepWeights w(topo);
    Rng rng(31);
    w.initRandom(rng, 1.0);
    FixedMlp qm(topo);
    FloatMlp fm(topo);
    qm.setWeights(w);
    fm.setWeights(w);
    for (int t = 0; t < 50; ++t) {
        std::vector<double> in(6);
        for (double &v : in)
            v = rng.nextDouble();
        Activations qa = qm.forward(in);
        Activations fa = fm.forward(in);
        for (size_t k = 0; k < qa.output().size(); ++k)
            EXPECT_NEAR(qa.output()[k], fa.output()[k], 0.05);
    }
}

TEST(FixedMlp, DeterministicForward)
{
    MlpTopology topo{3, 2, 2};
    DeepWeights w(topo);
    Rng rng(5);
    w.initRandom(rng, 1.0);
    FixedMlp m(topo);
    m.setWeights(w);
    std::vector<double> in{0.2, 0.8, 0.5};
    Activations a = m.forward(in);
    Activations b = m.forward(in);
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.hidden(), b.hidden());
}

} // namespace
} // namespace dtann
