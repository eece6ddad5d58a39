/**
 * @file
 * Tests for the layer-stack weight store and for deep
 * (multi-hidden-layer) networks through FloatMlp and the Trainer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ann/mlp.hh"
#include "ann/trainer.hh"

namespace dtann {
namespace {

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

TEST(DeepTopology, Accessors)
{
    DeepTopology t{{4, 8, 6, 3}};
    EXPECT_EQ(t.inputs(), 4);
    EXPECT_EQ(t.outputs(), 3);
    EXPECT_EQ(t.stages(), 3u);
}

TEST(DeepWeights, CountAndIndexing)
{
    // Counts include one bias synapse per neuron, and every cell is
    // independent, for the 2-layer paper network and a deep stack.
    struct Case
    {
        DeepTopology topo;
        size_t count;
    };
    for (const Case &c :
         {Case{{{4, 3, 2}}, 3u * 5u + 2u * 4u},
          Case{{{4, 8, 6, 3}}, 8u * 5u + 6u * 9u + 3u * 7u}}) {
        SCOPED_TRACE(c.topo.stages());
        DeepWeights w(c.topo);
        EXPECT_EQ(w.count(), c.count);
        size_t last = c.topo.stages() - 1;
        int fanin = c.topo.layers[last];
        w.at(0, 1, c.topo.inputs()) = 1.5; // bias of hidden unit 1
        w.at(0, 0, 0) = 2.5;
        w.at(last, c.topo.outputs() - 1, fanin) = -2.0;
        EXPECT_DOUBLE_EQ(w.at(0, 1, c.topo.inputs()), 1.5);
        EXPECT_DOUBLE_EQ(w.at(0, 0, 0), 2.5);
        EXPECT_DOUBLE_EQ(w.at(last, c.topo.outputs() - 1, fanin), -2.0);
        EXPECT_DOUBLE_EQ(w.at(0, 0, 1), 0.0);
        EXPECT_DOUBLE_EQ(w.at(last, 0, 0), 0.0);
    }
}

TEST(DeepWeights, InitRandomWithinRange)
{
    for (DeepTopology t : {DeepTopology{{10, 5, 3}},
                           DeepTopology{{10, 5, 4, 3}}}) {
        DeepWeights w(t);
        Rng rng(1);
        w.initRandom(rng, 0.5);
        for (size_t s = 0; s < t.stages(); ++s) {
            bool nonzero = false;
            for (double v : w.stage(s)) {
                EXPECT_LE(std::abs(v), 0.5);
                nonzero |= v != 0.0;
            }
            EXPECT_TRUE(nonzero) << "stage " << s;
        }
    }
}

TEST(FloatMlp, BatchMatchesScalar)
{
    DeepTopology t{{3, 5, 4, 2}};
    FloatMlp m(t);
    DeepWeights w(t);
    Rng rng(21);
    w.initRandom(rng, 1.0);
    m.setWeights(w);

    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 17; ++r) {
        std::vector<double> in(3);
        for (double &v : in)
            v = rng.nextDouble();
        rows.push_back(in);
    }
    std::vector<Activations> batch = m.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        Activations ref = m.forward(rows[r]);
        EXPECT_EQ(batch[r].layers, ref.layers) << "row " << r;
    }
}

TEST(DeepTrainer, TwoHiddenLayersLearnXor)
{
    // Deep sigmoid stacks are plateau-prone from tiny inits (the
    // classic pre-2006 training difficulty the paper's Deep
    // Networks reference is about); a slightly wider init escapes
    // it.
    Dataset ds = xorDataset();
    DeepTopology t{{2, 6, 4, 2}};
    FloatMlp model(t);
    Rng rng(3);
    DeepWeights init(t);
    init.initRandom(rng, 1.5);
    Trainer trainer({4, 400, 0.5, 0.5});
    trainer.train(model, ds, rng, &init);
    EXPECT_GT(evalAccuracy(model, ds), 0.9);
}

TEST(DeepTrainer, DeeperStackStillTrains)
{
    Dataset ds = xorDataset();
    DeepTopology t{{2, 8, 6, 4, 2}};
    FloatMlp model(t);
    Rng rng(9);
    DeepWeights init(t);
    init.initRandom(rng, 1.5);
    Trainer trainer({4, 600, 0.4, 0.5});
    trainer.train(model, ds, rng, &init);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(DeepTrainer, WarmStartKeepsAccuracy)
{
    Dataset ds = xorDataset();
    DeepTopology t{{2, 6, 4, 2}};
    FloatMlp model(t);
    Rng rng(5);
    DeepWeights w =
        Trainer({4, 400, 0.5, 0.5}).train(model, ds, rng);
    double before = evalAccuracy(model, ds);
    EXPECT_GT(before, 0.9);
    Trainer({4, 10, 0.5, 0.5}).train(model, ds, rng, &w);
    EXPECT_GT(evalAccuracy(model, ds), before - 0.1);
}

} // namespace
} // namespace dtann
