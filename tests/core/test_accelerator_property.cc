/**
 * @file
 * Parameterized property tests over the accelerator's unit kinds
 * and logical mappings.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ann/fixed_mlp.hh"
#include "core/accelerator.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 10;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

class UnitKindProperty : public ::testing::TestWithParam<UnitKind>
{
};

TEST_P(UnitKindProperty, HeavyDefectsEventuallyObservableWhenExcited)
{
    // Pile defects on a unit that the logical network actually
    // exercises with varied operands; over several trials, at
    // least one must change the network function.
    UnitKind kind = GetParam();
    MlpTopology topo{10, 4, 3};
    int observed = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Accelerator accel(smallArray(), topo);
        FixedMlp ref(topo);
        DeepWeights w(topo);
        Rng rng(seed + 100);
        w.initRandom(rng, 2.0);
        UnitSite site{kind, Layer::Hidden, 1,
                      kind == UnitKind::Activation ? 0 : 3};
        Rng inj(seed);
        accel.injectDefects(site, 30, inj);
        // setWeights AFTER injection so faulty latches see writes.
        accel.setWeights(w);
        ref.setWeights(w);
        bool differs = false;
        for (int t = 0; t < 80 && !differs; ++t) {
            std::vector<double> in(10);
            for (double &v : in)
                v = rng.nextDouble();
            differs = accel.forward(in).hidden() != ref.forward(in).hidden();
        }
        observed += differs ? 1 : 0;
    }
    EXPECT_GT(observed, 0) << "30 defects never observable";
}

TEST_P(UnitKindProperty, ProbesOnlyCountWhenUnitIsUsed)
{
    UnitKind kind = GetParam();
    MlpTopology topo{10, 4, 3};
    Accelerator accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(3);
    w.initRandom(rng, 1.0);
    UnitSite site{kind, Layer::Hidden, 0,
                  kind == UnitKind::Activation ? 0 : 1};
    Rng inj(5);
    accel.injectDefects(site, 5, inj);
    accel.setWeights(w);
    accel.clearProbes();
    size_t rows = 7;
    for (size_t t = 0; t < rows; ++t)
        accel.forward(std::vector<double>(10, 0.4));
    const DeviationProbe &p = accel.probe(site);
    if (kind == UnitKind::WeightLatch) {
        // Latches are exercised at write time, not per row.
        EXPECT_EQ(p.amplitude.count(), 0u);
    } else {
        EXPECT_EQ(p.amplitude.count(), rows);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnitKinds, UnitKindProperty,
    ::testing::Values(UnitKind::WeightLatch, UnitKind::Multiplier,
                      UnitKind::AdderStage, UnitKind::Activation),
    [](const auto &info) {
        switch (info.param) {
          case UnitKind::WeightLatch: return "Latch";
          case UnitKind::Multiplier: return "Multiplier";
          case UnitKind::AdderStage: return "AdderStage";
          default: return "Activation";
        }
    });

TEST(AcceleratorMapping, OneOutputTaskWorks)
{
    // Degenerate-but-legal logical shapes map cleanly.
    MlpTopology topo{1, 1, 1};
    Accelerator accel(smallArray(), topo);
    DeepWeights w(topo);
    w.at(0, 0, 0) = 2.0;
    w.at(1, 0, 0) = 2.0;
    accel.setWeights(w);
    Activations act = accel.forward(std::vector<double>{1.0});
    EXPECT_GT(act.output()[0], 0.5);
}

TEST(AcceleratorMapping, ExactFitUsesAllUnits)
{
    MlpTopology topo{10, 4, 3};
    Accelerator accel(smallArray(), topo);
    EXPECT_EQ(accel.unitCount(UnitKind::Multiplier),
              4 * 11 + 3 * 5);
}

TEST(AcceleratorMapping, UnusedRegionWeightsStayZero)
{
    // A small logical task leaves the rest of the array written
    // with zeros; spare physical outputs then sit at pwl(0) = 0.5
    // but are never read logically.
    MlpTopology topo{2, 2, 2};
    Accelerator accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(9);
    w.initRandom(rng, 1.0);
    accel.setWeights(w);
    Activations act = accel.forward(std::vector<double>{0.3, 0.9});
    EXPECT_EQ(act.output().size(), 2u);
    EXPECT_EQ(act.hidden().size(), 2u);
}

} // namespace
} // namespace dtann
