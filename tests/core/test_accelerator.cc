/**
 * @file
 * Tests for the spatially expanded accelerator model.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "ann/fixed_mlp.hh"
#include "ann/trainer.hh"
#include "core/accelerator.hh"
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

TEST(Accelerator, CleanForwardMatchesFixedMlpBitExact)
{
    // The defect-free accelerator must be bit-identical to the
    // fixed-point reference when the logical network fills the
    // array exactly.
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    FixedMlp ref(topo);
    DeepWeights w(topo);
    Rng rng(2);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    ref.setWeights(w);
    for (int t = 0; t < 50; ++t) {
        std::vector<double> in(12);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = accel.forward(in);
        Activations b = ref.forward(in);
        EXPECT_EQ(a.output(), b.output());
        EXPECT_EQ(a.hidden(), b.hidden());
    }
}

TEST(Accelerator, LogicalSubsetMatchesFixedMlp)
{
    // A smaller logical task mapped onto a larger array behaves
    // exactly like the task-sized reference.
    MlpTopology topo{5, 3, 2};
    Accelerator accel(smallArray(), topo);
    FixedMlp ref(topo);
    DeepWeights w(topo);
    Rng rng(3);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    ref.setWeights(w);
    for (int t = 0; t < 50; ++t) {
        std::vector<double> in(5);
        for (double &v : in)
            v = rng.nextDouble();
        EXPECT_EQ(accel.forward(in).output(), ref.forward(in).output());
    }
}

TEST(Accelerator, PaperConfigurationDefaults)
{
    AcceleratorConfig cfg;
    EXPECT_EQ(cfg.inputs, 90);
    EXPECT_EQ(cfg.hidden, 10);
    EXPECT_EQ(cfg.outputs, 10);
}

TEST(Accelerator, UnitCounts)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    // Synapses: 4*13 + 3*5 = 67 latches and multipliers each.
    EXPECT_EQ(accel.unitCount(UnitKind::WeightLatch), 67);
    EXPECT_EQ(accel.unitCount(UnitKind::Multiplier), 67);
    // Adder stages: 4*12 + 3*4 = 60.
    EXPECT_EQ(accel.unitCount(UnitKind::AdderStage), 60);
    EXPECT_EQ(accel.unitCount(UnitKind::Activation), 7);
}

TEST(Accelerator, RejectsOversizedLogicalNetwork)
{
    EXPECT_EXIT(
        {
            Accelerator accel(smallArray(), {13, 4, 3});
        },
        ::testing::KilledBySignal(SIGABRT), "does not fit");
}

TEST(Accelerator, InjectAndClearDefects)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    Rng rng(5);
    UnitSite site{UnitKind::Multiplier, Layer::Hidden, 1, 3};
    auto recs = accel.injectDefects(site, 3, rng);
    EXPECT_EQ(recs.size(), 3u);
    ASSERT_EQ(accel.faultySites().size(), 1u);
    EXPECT_EQ(accel.faultySites()[0], site);
    accel.clearDefects();
    EXPECT_TRUE(accel.faultySites().empty());
}

TEST(Accelerator, DefectsAccumulateAtSameSite)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    Rng rng(5);
    UnitSite site{UnitKind::Multiplier, Layer::Hidden, 0, 0};
    accel.injectDefects(site, 1, rng);
    accel.injectDefects(site, 2, rng);
    EXPECT_EQ(accel.faultySites().size(), 1u);
}

TEST(Accelerator, ManyMultiplierDefectsChangeOutputs)
{
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    FixedMlp ref(topo);
    DeepWeights w(topo);
    Rng rng(7);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    ref.setWeights(w);

    // Saturate one hidden multiplier with defects: some input must
    // now deviate from the clean reference.
    UnitSite site{UnitKind::Multiplier, Layer::Hidden, 0, 2};
    accel.injectDefects(site, 25, rng);
    bool deviated = false;
    for (int t = 0; t < 100 && !deviated; ++t) {
        std::vector<double> in(12);
        for (double &v : in)
            v = rng.nextDouble();
        deviated = accel.forward(in).hidden() != ref.forward(in).hidden();
    }
    EXPECT_TRUE(deviated);
}

TEST(Accelerator, FaultyWeightLatchCorruptsStorage)
{
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    Rng rng(11);
    UnitSite site{UnitKind::WeightLatch, Layer::Hidden, 2, 5};
    accel.injectDefects(site, 20, rng);

    DeepWeights w(topo);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    // The probe recorded the |stored - intended| deviation.
    const DeviationProbe &p = accel.probe(site);
    EXPECT_GT(p.amplitude.count(), 0u);
}

TEST(Accelerator, ProbeRecordsMultiplierDeviation)
{
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(13);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    UnitSite site{UnitKind::Multiplier, Layer::Output, 1, 2};
    accel.injectDefects(site, 10, rng);
    std::vector<double> in(12, 0.5);
    accel.forward(in);
    EXPECT_EQ(accel.probe(site).amplitude.count(), 1u);
    accel.clearProbes();
    EXPECT_EQ(accel.probe(site).amplitude.count(), 0u);
}

TEST(Accelerator, CleanSiteProbeIsEmpty)
{
    Accelerator accel(smallArray(), {12, 4, 3});
    UnitSite site{UnitKind::Activation, Layer::Hidden, 0, 0};
    EXPECT_EQ(accel.probe(site).amplitude.count(), 0u);
}

TEST(Accelerator, TrainableThroughFaultyForward)
{
    // End-to-end: inject defects, retrain through the faulty
    // hardware, accuracy recovers above chance.
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 120);
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 6;
    cfg.outputs = 3;
    MlpTopology topo{4, 6, 3};
    Accelerator accel(cfg, topo);

    Trainer trainer({6, 60, 0.2, 0.1});
    Rng rng(5);
    DeepWeights clean = trainer.train(accel, ds, rng);
    double clean_acc = evalAccuracy(accel, ds);
    EXPECT_GT(clean_acc, 0.8);

    DefectInjector injector(accel, SitePool::inputAndHidden());
    injector.inject(4, rng);
    Trainer retrainer({6, 30, 0.2, 0.1});
    retrainer.train(accel, ds, rng, &clean);
    double faulty_acc = evalAccuracy(accel, ds);
    EXPECT_GT(faulty_acc, 0.6) << "retraining failed to recover";
}

TEST(Accelerator, ForwardBatchMatchesPerRowForward)
{
    // Two accelerators with identical defects: one fed row by row,
    // one through forwardBatch (64-lane gate-level batches under
    // the hood). Outputs and per-site deviation-probe statistics
    // must be bit-identical — the invariant that makes the batched
    // campaigns equivalent to the scalar ones.
    MlpTopology topo{12, 4, 3};
    Accelerator a(smallArray(), topo);
    Accelerator b(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(23);
    w.initRandom(rng, 2.0);

    Rng inj_a(31), inj_b(31);
    DefectInjector ia(a, SitePool::all());
    ia.inject(6, inj_a);
    DefectInjector ib(b, SitePool::all());
    ib.inject(6, inj_b);
    ASSERT_EQ(a.faultySites(), b.faultySites());
    a.setWeights(w);
    b.setWeights(w);

    // 150 rows: two full 64-lane batches plus a 22-lane remainder.
    std::vector<std::vector<double>> rows(150,
                                          std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> batch = b.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations ref = a.forward(rows[i]);
        EXPECT_EQ(ref.output(), batch[i].output()) << "row " << i;
        EXPECT_EQ(ref.hidden(), batch[i].hidden()) << "row " << i;
    }

    for (const UnitSite &s : a.faultySites()) {
        const DeviationProbe &pa = a.probe(s);
        const DeviationProbe &pb = b.probe(s);
        EXPECT_EQ(pa.amplitude.count(), pb.amplitude.count());
        EXPECT_EQ(pa.amplitude.mean(), pb.amplitude.mean());
        EXPECT_EQ(pa.amplitude.stddev(), pb.amplitude.stddev());
    }

    // The batched side actually used the 64-lane path for its
    // state-free sims.
    EXPECT_GT(b.simCounters().vectors(), 0u);
}

TEST(Accelerator, ActivationClampSaturatesDatapath)
{
    // A clamp window on the output layer bounds every datapath
    // value into [lo, hi]; in-window values pass through untouched
    // and clearActivationClamps() restores the exact raw forward.
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(41);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);

    std::vector<std::vector<double>> rows(40, std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();

    std::vector<Activations> raw;
    for (const auto &r : rows)
        raw.push_back(accel.forward(r));
    EXPECT_EQ(accel.clampHits(), 0u);

    const Fix16 lo = Fix16::fromDouble(0.25);
    const Fix16 hi = Fix16::fromDouble(0.75);
    accel.setActivationClamp(Layer::Output, lo, hi);
    EXPECT_TRUE(accel.activationClamp(Layer::Output).enabled);
    EXPECT_FALSE(accel.activationClamp(Layer::Hidden).enabled);

    uint64_t expected_hits = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations clamped = accel.forward(rows[i]);
        // Hidden layer has no clamp: bit-identical to the raw run.
        EXPECT_EQ(clamped.hidden(), raw[i].hidden());
        for (size_t n = 0; n < clamped.output().size(); ++n) {
            double v = raw[i].output()[n];
            double expect = v;
            if (v < lo.toDouble()) {
                expect = lo.toDouble();
                ++expected_hits;
            } else if (v > hi.toDouble()) {
                expect = hi.toDouble();
                ++expected_hits;
            }
            EXPECT_EQ(clamped.output()[n], expect)
                << "row " << i << " neuron " << n;
        }
    }
    // The sigmoid range [0, 1] is wider than [0.25, 0.75]: some
    // outputs must have been saturated, and each one counted.
    EXPECT_GT(expected_hits, 0u);
    EXPECT_EQ(accel.clampHits(), expected_hits);

    accel.clearActivationClamps();
    EXPECT_FALSE(accel.activationClamp(Layer::Output).enabled);
    EXPECT_EQ(accel.clampHits(), 0u);
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations again = accel.forward(rows[i]);
        EXPECT_EQ(again.output(), raw[i].output());
        EXPECT_EQ(again.hidden(), raw[i].hidden());
    }
}

TEST(Accelerator, ClampedBatchMatchesScalarForward)
{
    // Clamping happens after the activation unit in both the scalar
    // and the lane-batched forward: identical windows on identical
    // arrays must agree bit for bit, hit counters included.
    MlpTopology topo{12, 4, 3};
    Accelerator a(smallArray(), topo);
    Accelerator b(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(43);
    w.initRandom(rng, 2.0);

    // Defective units make the clamp actually bite: injected faults
    // can push activations far outside the clean sigmoid range.
    Rng inj_a(47), inj_b(47);
    DefectInjector ia(a, SitePool::all());
    ia.inject(8, inj_a);
    DefectInjector ib(b, SitePool::all());
    ib.inject(8, inj_b);
    ASSERT_EQ(a.faultySites(), b.faultySites());
    a.setWeights(w);
    b.setWeights(w);

    const Fix16 lo = Fix16::fromDouble(-0.0625);
    const Fix16 hi = Fix16::fromDouble(1.0625);
    a.setActivationClamp(Layer::Hidden, lo, hi);
    a.setActivationClamp(Layer::Output, lo, hi);
    b.setActivationClamp(Layer::Hidden, lo, hi);
    b.setActivationClamp(Layer::Output, lo, hi);

    std::vector<std::vector<double>> rows(100,
                                          std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> batch = b.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations ref = a.forward(rows[i]);
        EXPECT_EQ(ref.output(), batch[i].output()) << "row " << i;
        EXPECT_EQ(ref.hidden(), batch[i].hidden()) << "row " << i;
    }
    EXPECT_EQ(a.clampHits(), b.clampHits());
}

TEST(Accelerator, EmptyClampWindowIsRejected)
{
    MlpTopology topo{12, 4, 3};
    Accelerator accel(smallArray(), topo);
    EXPECT_EXIT(accel.setActivationClamp(Layer::Output,
                                         Fix16::fromDouble(0.5),
                                         Fix16::fromDouble(0.25)),
                testing::KilledBySignal(SIGABRT),
                "clamp window is empty");
}

TEST(UnitSite, OrderingAndDescription)
{
    UnitSite a{UnitKind::Multiplier, Layer::Hidden, 0, 1};
    UnitSite b{UnitKind::Multiplier, Layer::Hidden, 0, 2};
    EXPECT_LT(a, b);
    EXPECT_FALSE(b < a);
    EXPECT_EQ(a.describe(), "mult[hid n0 i1]");
    UnitSite c{UnitKind::Activation, Layer::Output, 3, 0};
    EXPECT_EQ(c.describe(), "act[out n3 i0]");
}

} // namespace
} // namespace dtann
