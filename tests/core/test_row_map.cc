/**
 * @file
 * Tests for the output-row mapping model with blind spare (redundant)
 * output neurons: the spare plan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>

#include "ann/trainer.hh"
#include "core/accelerator.hh"
#include "core/row_map.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 6; // room for 3 logical outputs + 3 spares
    return cfg;
}

TEST(Spare, TopologyDoubling)
{
    MlpTopology logical{12, 4, 3};
    EXPECT_EQ(sparePlan(logical, 2), (RowPlan{{0, 3}, {1, 4}, {2, 5}}));
    // The mapping covers every physical output row, not just the
    // 2 x 3 the plan uses: rows past the plan hold zero weights.
    AcceleratorConfig wide = smallArray();
    wide.outputs = 10;
    MlpTopology phys = fullRowTopology(logical, wide);
    EXPECT_EQ(phys.outputs, wide.outputs);
    EXPECT_EQ(phys.inputs, logical.inputs);
    EXPECT_EQ(phys.hidden, logical.hidden);
}

TEST(Spare, CleanForwardEqualsUnsparedNetwork)
{
    MlpTopology logical{12, 4, 3};
    Accelerator spared_accel(smallArray(),
                             fullRowTopology(logical, smallArray()));
    RowMappedMlp spared(spared_accel, logical, sparePlan(logical, 2));
    Accelerator plain_accel(smallArray(), logical);

    DeepWeights w(logical);
    Rng rng(3);
    w.initRandom(rng, 1.5);
    spared.setWeights(w);
    plain_accel.setWeights(w);
    for (int t = 0; t < 30; ++t) {
        std::vector<double> in(12);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = spared.forward(in);
        Activations b = plain_accel.forward(in);
        ASSERT_EQ(a.output().size(), b.output().size());
        for (size_t k = 0; k < a.output().size(); ++k)
            EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k]);
    }
}

TEST(Spare, HalvesImpactOfOutputActivationFault)
{
    // Stuck activation on physical output 0 (a primary copy): the
    // averager limits the deviation to half, while the unspared
    // network takes it in full.
    MlpTopology logical{12, 4, 3};
    Accelerator spared_accel(smallArray(),
                             fullRowTopology(logical, smallArray()));
    RowMappedMlp spared(spared_accel, logical, sparePlan(logical, 2));
    Accelerator plain_accel(smallArray(), logical);

    DeepWeights w(logical);
    Rng rng(5);
    w.initRandom(rng, 1.5);
    spared.setWeights(w);
    plain_accel.setWeights(w);

    // Same severe defect (saturated with faults) at each array's
    // output-activation 0.
    UnitSite site{UnitKind::Activation, Layer::Output, 0, 0};
    Rng inj1(99), inj2(99);
    spared_accel.injectDefects(site, 30, inj1);
    plain_accel.injectDefects(site, 30, inj2);

    double max_dev_spared = 0.0, max_dev_plain = 0.0;
    FloatMlp ref(logical); // reference uses exact sigmoid: compare
                           // faulty vs its own clean twin instead
    (void)ref;
    Accelerator clean_accel(smallArray(), logical);
    clean_accel.setWeights(w);
    for (int t = 0; t < 60; ++t) {
        std::vector<double> in(12);
        for (double &v : in)
            v = rng.nextDouble();
        double clean = clean_accel.forward(in).output()[0];
        max_dev_spared = std::max(
            max_dev_spared, std::abs(spared.forward(in).output()[0] - clean));
        max_dev_plain = std::max(
            max_dev_plain, std::abs(plain_accel.forward(in).output()[0] -
                                    clean));
    }
    EXPECT_GT(max_dev_plain, 0.0) << "fault never excited";
    EXPECT_LE(max_dev_spared, 0.5 * max_dev_plain + 1e-9);
}

TEST(Spare, MedianOfThreeRejectsSingleBrokenCopyExactly)
{
    // With three copies, the median output is bit-identical to the
    // clean network no matter how badly ONE copy misbehaves.
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 9; // 3 logical x 3 copies
    MlpTopology logical{12, 4, 3};
    Accelerator accel(cfg, fullRowTopology(logical, cfg));
    RowMappedMlp spared(accel, logical, sparePlan(logical, 3));
    Accelerator clean(cfg, logical);

    DeepWeights w(logical);
    Rng rng(7);
    w.initRandom(rng, 1.5);
    spared.setWeights(w);
    clean.setWeights(w);

    // Wreck the primary copy of logical output 1.
    UnitSite site{UnitKind::Activation, Layer::Output, 1, 0};
    Rng inj(31);
    accel.injectDefects(site, 30, inj);

    for (int t = 0; t < 60; ++t) {
        std::vector<double> in(12);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = spared.forward(in);
        Activations b = clean.forward(in);
        for (size_t k = 0; k < a.output().size(); ++k)
            EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k])
                << "output " << k << " row " << t;
    }
}

TEST(Spare, RequiresEnoughPhysicalOutputs)
{
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 4; // too few for 3 + 3
    MlpTopology logical{12, 4, 3};
    EXPECT_EXIT(
        {
            Accelerator accel(cfg, fullRowTopology(logical, cfg));
            RowMappedMlp spared(accel, logical, sparePlan(logical, 2));
        },
        ::testing::KilledBySignal(SIGABRT), "fit");
}

TEST(Spare, TrainableEndToEnd)
{
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 120);
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 6;
    cfg.outputs = 6;
    MlpTopology logical{4, 6, 3};
    Accelerator accel(cfg, fullRowTopology(logical, cfg));
    RowMappedMlp spared(accel, logical, sparePlan(logical, 2));
    Trainer trainer({6, 60, 0.2, 0.1});
    Rng rng(5);
    trainer.train(spared, ds, rng);
    EXPECT_GT(evalAccuracy(spared, ds), 0.8);
}

} // namespace
} // namespace dtann
