/**
 * @file
 * Training, cross-validation and fixed-vs-float accuracy tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ann/crossval.hh"
#include "ann/fixed_mlp.hh"
#include "ann/trainer.hh"
#include "core/backend.hh"
#include "core/timemux.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

/** XOR-like 2D dataset: the classic non-linearly-separable check. */
Dataset
xorDataset()
{
    Dataset ds;
    ds.name = "xor";
    ds.numAttributes = 2;
    ds.numClasses = 2;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        double x = rng.nextDouble(), y = rng.nextDouble();
        ds.rows.push_back({x, y});
        ds.labels.push_back(((x > 0.5) != (y > 0.5)) ? 1 : 0);
    }
    return ds;
}

TEST(Trainer, LearnsXor)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Trainer trainer({6, 400, 0.5, 0.5});
    Rng rng(3);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.95);
}

TEST(Trainer, WarmStartImprovesOverColdShortRun)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    // Long run to converge.
    DeepWeights trained =
        Trainer({6, 400, 0.5, 0.5}).train(model, ds, rng);
    // Short retraining from the converged weights keeps accuracy.
    Trainer short_trainer({6, 10, 0.5, 0.5});
    short_trainer.train(model, ds, rng, &trained);
    double warm = evalAccuracy(model, ds);
    EXPECT_GT(warm, 0.9);
}

TEST(Trainer, LearnsSyntheticIris)
{
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    Trainer trainer({8, 100, 0.2, 0.1});
    Rng rng(5);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(Trainer, AccuracyOfUntrainedNetIsChanceLike)
{
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    DeepWeights w(topo);
    Rng rng(5);
    w.initRandom(rng);
    model.setWeights(w);
    EXPECT_LT(evalAccuracy(model, ds), 0.7);
}

TEST(Trainer, MseDecreasesWithTraining)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    DeepWeights w(topo);
    w.initRandom(rng);
    model.setWeights(w);
    double before = evalMse(model, ds);
    Trainer({6, 200, 0.5, 0.5}).train(model, ds, rng, &w);
    double after = evalMse(model, ds);
    EXPECT_LT(after, before);
}

TEST(Trainer, PruneMaskFreezesSynapsesToZero)
{
    // Fault-aware pruning support: masked synapses must stay exactly
    // zero through init, every update, and the returned weights —
    // the trainer's shadow state may never diverge from a hardware
    // forward path that zeroed those connections.
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Trainer trainer({6, 100, 0.5, 0.5});
    trainer.setPruneMask({{0, 2, 1},
                          {0, 3, 2}, // hidden neuron 3's bias column
                          {1, 0, 4}});
    EXPECT_EQ(trainer.pruneMask().size(), 3u);
    Rng rng(3);
    DeepWeights w = trainer.train(model, ds, rng);
    EXPECT_EQ(w.at(0, 2, 1), 0.0);
    EXPECT_EQ(w.at(0, 3, 2), 0.0);
    EXPECT_EQ(w.at(1, 0, 4), 0.0);
    // The rest of the network trains normally around the holes.
    EXPECT_NE(w.at(0, 2, 0), 0.0);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(Trainer, PruneMaskZeroesWarmStartWeights)
{
    // A warm start whose pruned synapses carry nonzero values (the
    // usual case: baseline weights trained before the fault) must be
    // cleaned before the first forward pass.
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    DeepWeights init = Trainer({6, 60, 0.5, 0.5}).train(model, ds, rng);
    ASSERT_NE(init.at(1, 1, 2), 0.0);

    Trainer pruned({6, 1, 0.5, 0.5});
    pruned.setPruneMask({{1, 1, 2}});
    DeepWeights w = pruned.train(model, ds, rng, &init);
    EXPECT_EQ(w.at(1, 1, 2), 0.0);
}

/** FNV-1a over the bit pattern of every weight, stage by stage. */
uint64_t
weightDigest(const DeepWeights &w)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t s = 0; s < w.topology().stages(); ++s) {
        for (double v : w.stage(s)) {
            uint64_t bits = std::bit_cast<uint64_t>(v);
            for (int b = 0; b < 8; ++b) {
                h ^= (bits >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

/** The first seed from 1 whose 3 defects make the latch at @p site
 *  store a non-zero word when zero is written into it from reset. */
uint64_t
nonZeroLatchSeed(BackendKind kind, const AcceleratorConfig &cfg,
                 const MlpTopology &topo, const UnitSite &site)
{
    for (uint64_t s = 1; s < 2000; ++s) {
        auto b = makeBackend(kind, cfg, topo);
        Rng rng(s);
        b->injectDefects(site, 3, rng);
        if (b->bistLatchStore(site.layer, site.neuron, site.index,
                              Fix16()) != Fix16())
            return s;
    }
    ADD_FAILURE() << "no draw stores a non-zero word at " << site.describe();
    return 1;
}

TEST(Trainer, TrainedWeightsMatchPreRefactorRecording)
{
    // Bit-exact trained weights, recorded before the 2-layer weight
    // type was folded into the layer stack (the two backend digests
    // before the neuron run plan and the one-row forward buffer).
    // Every model family the trainer drives is pinned: a change in
    // RNG draw order, FP expression shape or weight install shows up
    // here even when accuracy bounds would still pass.
    Dataset xor_ds = xorDataset();
    Rng gen(17);
    Dataset iris = makeSyntheticTask(uciTask("iris"), gen, 60);

    // 2-layer float reference, cold start.
    FloatMlp flat({{2, 6, 2}});
    Rng r1(31);
    DeepWeights flat_w = Trainer({6, 30, 0.5, 0.5}).train(flat, xor_ds, r1);
    EXPECT_EQ(weightDigest(flat_w), 0xe75213799e80b509ull);

    // Fixed-point hardware semantics.
    FixedMlp fixed({4, 8, 3});
    Rng r2(5);
    DeepWeights fixed_w =
        Trainer({8, 20, 0.2, 0.1}).train(fixed, iris, r2);
    EXPECT_EQ(weightDigest(fixed_w), 0x6eb908819ff838b4ull);

    // 3-stage float stack from a wide warm init.
    DeepTopology deep_t{{2, 6, 4, 2}};
    FloatMlp deep(deep_t);
    Rng r3(3);
    DeepWeights deep_init(deep_t);
    deep_init.initRandom(r3, 1.5);
    DeepWeights deep_w =
        Trainer({4, 40, 0.5, 0.5}).train(deep, xor_ds, r3, &deep_init);
    EXPECT_EQ(weightDigest(deep_w), 0xe0b577770a610cb1ull);

    // Time-multiplexed hardware with a faulty activation unit,
    // warm-started from a float baseline under a prune mask.
    MlpTopology mux_t{4, 6, 3};
    FloatMlp base_model(mux_t);
    Rng r4(9);
    DeepWeights base =
        Trainer({6, 30, 0.3, 0.1}).train(base_model, iris, r4);
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    Accelerator accel(cfg, {4, 4, 3});
    accel.injectDefects({UnitKind::Activation, Layer::Hidden, 1, 0}, 3,
                        r4);
    TimeMuxedMlp mux(accel, mux_t);
    Trainer pruned({6, 4, 0.2, 0.1});
    pruned.setPruneMask({{0, 1, 2}, {1, 2, 6}});
    DeepWeights mux_w = pruned.train(mux, iris, r4, &base);
    EXPECT_EQ(weightDigest(mux_w), 0x310765a6f98f5e16ull);

    // Retraining through faulty hardware on both backends: an output
    // padding latch that stores a non-zero word (it weighs hidden
    // padding neuron 3), a faulty multiplier and a bypassed adder
    // stage.
    for (auto [kind, digest] :
         {std::pair{BackendKind::Spatial, 0xd869af424406cf49ull},
          std::pair{BackendKind::Systolic, 0x36fe5c2301b4fcccull}}) {
        SCOPED_TRACE(backendName(kind));
        MlpTopology hw_t{4, 3, 3};
        UnitSite latch{UnitKind::WeightLatch, Layer::Output, 0, 3};
        uint64_t latch_seed = nonZeroLatchSeed(kind, cfg, hw_t, latch);
        auto hw = makeBackend(kind, cfg, hw_t);
        Rng r5(latch_seed);
        hw->injectDefects(latch, 3, r5);
        hw->injectDefects({UnitKind::Multiplier, Layer::Hidden, 1, 2}, 3,
                          r5);
        hw->bypassUnit({UnitKind::AdderStage, Layer::Output, 2, 1});
        DeepWeights hw_w = Trainer({3, 4, 0.2, 0.1}).train(*hw, iris, r5);
        EXPECT_EQ(weightDigest(hw_w), digest);
    }
}

TEST(Trainer, ArgmaxBasics)
{
    std::vector<double> v{0.1, 0.9, 0.3};
    EXPECT_EQ(argmax(v), 1);
    std::vector<double> first{0.5, 0.5};
    EXPECT_EQ(argmax(first), 0);
}

TEST(FixedMlp, MatchesFloatAccuracyAfterQuantization)
{
    // The paper's claim: the 16-bit Q6.10 design achieves the same
    // accuracy as floating point on these problems.
    Rng gen(13);
    Dataset ds = makeSyntheticTask(uciTask("wine"), gen, 178);
    MlpTopology topo{13, 4, 3};
    FloatMlp fmodel(topo);
    Trainer trainer({4, 200, 0.2, 0.1});
    Rng rng(5);
    DeepWeights w = trainer.train(fmodel, ds, rng);

    FixedMlp qmodel(topo);
    qmodel.setWeights(w);
    double facc = evalAccuracy(fmodel, ds);
    double qacc = evalAccuracy(qmodel, ds);
    EXPECT_GT(facc, 0.85);
    EXPECT_NEAR(qacc, facc, 0.05);
}

TEST(FixedMlp, TrainingThroughFixedForwardWorks)
{
    // Companion-core training with the hardware forward path.
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FixedMlp model(topo);
    Trainer trainer({8, 100, 0.2, 0.1});
    Rng rng(5);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.8);
}

TEST(CrossVal, TenFoldOnIris)
{
    Rng gen(19);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    Rng rng(5);
    CrossValResult cv =
        crossValidate(model, ds, 10, Trainer({8, 60, 0.2, 0.1}), rng);
    EXPECT_EQ(cv.folds, 10);
    EXPECT_GT(cv.meanAccuracy, 0.75);
    EXPECT_LT(cv.stddev, 0.25);
}

TEST(CrossVal, FoldsSeeDisjointTestData)
{
    // Cross-validated accuracy must be <= resubstitution accuracy
    // in expectation; just assert it runs and is bounded.
    Rng gen(23);
    Dataset ds = makeSyntheticTask(uciTask("wine"), gen, 100);
    MlpTopology topo{13, 4, 3};
    FloatMlp model(topo);
    Rng rng(5);
    CrossValResult cv =
        crossValidate(model, ds, 5, Trainer({4, 40, 0.2, 0.1}), rng);
    EXPECT_GE(cv.meanAccuracy, 0.0);
    EXPECT_LE(cv.meanAccuracy, 1.0);
}

} // namespace
} // namespace dtann
