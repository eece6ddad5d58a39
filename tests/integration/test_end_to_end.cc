/**
 * @file
 * Integration tests: full pipelines across modules, plus the
 * paper's headline claims encoded as assertions.
 */

#include <gtest/gtest.h>

#include "ann/crossval.hh"
#include "ann/fixed_mlp.hh"
#include "core/campaign.hh"
#include "core/cost_model.hh"
#include "core/dma.hh"
#include "core/injector.hh"
#include "core/keylogic.hh"
#include "core/row_map.hh"
#include "core/timemux.hh"
#include "cpu/simple_cpu.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

TEST(EndToEnd, TrainedAcceleratorKernelAndFixedMlpAgreeBitwise)
{
    // Train on the accelerator, then run the same weights through
    // the software kernel and the fixed-point reference: all three
    // must produce identical Q6.10 outputs row by row.
    Rng gen(3);
    Dataset ds = makeSyntheticTask(uciTask("wine"), gen, 150);
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 4;
    cfg.outputs = 3;
    MlpTopology topo{13, 4, 3};
    Accelerator accel(cfg, topo);
    Rng rng(5);
    DeepWeights w = Trainer({4, 40, 0.2, 0.1}).train(accel, ds, rng);

    FixedMlp fixed(topo);
    fixed.setWeights(w);
    std::vector<Fix16> hid_w, out_w;
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i)
            hid_w.push_back(fixed.hidWeight(j, i));
    for (int k = 0; k < topo.outputs; ++k)
        for (int jj = 0; jj <= topo.hidden; ++jj)
            out_w.push_back(fixed.outWeight(k, jj));

    for (size_t n = 0; n < 40; ++n) {
        const auto &row = ds.rows[n];
        Activations a = accel.forward(row);
        Activations f = fixed.forward(row);
        EXPECT_EQ(a.output(), f.output());

        std::vector<Fix16> fix_row(row.size());
        for (size_t i = 0; i < row.size(); ++i)
            fix_row[i] = Fix16::fromDouble(row[i]);
        auto k = runSoftwareKernel(topo, hid_w, out_w, fix_row);
        for (size_t c = 0; c < k.size(); ++c)
            EXPECT_DOUBLE_EQ(k[c].toDouble(), a.output()[c]);
    }
}

TEST(EndToEnd, DmaStreamedInferenceEqualsDirectCalls)
{
    Rng gen(7);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 60);
    AcceleratorConfig cfg;
    cfg.inputs = 8;
    cfg.hidden = 4;
    cfg.outputs = 3;
    Accelerator accel(cfg, {4, 4, 3});
    DeepWeights w({{4, 4, 3}});
    Rng rng(9);
    w.initRandom(rng, 1.0);
    accel.setWeights(w);

    // Direct path.
    std::vector<std::vector<Fix16>> direct;
    for (const auto &row : ds.rows) {
        std::vector<Fix16> phys(8);
        for (size_t i = 0; i < row.size(); ++i)
            phys[i] = Fix16::fromDouble(row[i]);
        direct.push_back(accel.forwardFix(phys));
    }
    // Streamed through the double-buffered channel.
    HandshakeChannel<DmaRow> ch;
    std::vector<std::vector<Fix16>> streamed;
    size_t next = 0;
    while (streamed.size() < ds.size()) {
        while (next < ds.size()) {
            DmaRow row(8);
            for (size_t i = 0; i < ds.rows[next].size(); ++i)
                row[i] = Fix16::fromDouble(ds.rows[next][i]);
            if (!ch.offer(std::move(row)))
                break;
            ++next;
        }
        if (ch.available()) {
            DmaRow row = ch.accept();
            streamed.push_back(accel.forwardFix(row));
        }
    }
    ASSERT_EQ(streamed.size(), direct.size());
    for (size_t r = 0; r < direct.size(); ++r)
        EXPECT_EQ(streamed[r], direct[r]) << "row " << r;
}

TEST(EndToEnd, CampaignsAreDeterministicPerSeed)
{
    Fig10Config cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 4};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 80;
    cfg.epochScale = 0.2;
    cfg.retrainScale = 0.3;
    cfg.seed = 1234;
    cfg.array.inputs = 8;
    cfg.array.hidden = 4;
    cfg.array.outputs = 3;

    auto a = runFig10(cfg);
    auto b = runFig10(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c)
        for (size_t p = 0; p < a[c].points.size(); ++p)
            EXPECT_DOUBLE_EQ(a[c].points[p].accuracy,
                             b[c].points[p].accuracy);
}

TEST(EndToEnd, Fig5DeterministicAndSeedSensitive)
{
    Fig5Config cfg;
    cfg.op = Fig5Operator::Adder4;
    cfg.defects = 5;
    cfg.repetitions = 10;
    cfg.seed = 5;
    Fig5Result a = runFig5(cfg);
    Fig5Result b = runFig5(cfg);
    cfg.seed = 6;
    Fig5Result c = runFig5(cfg);
    EXPECT_EQ(a.trans.items(), b.trans.items());
    EXPECT_EQ(a.gate.items(), b.gate.items());
    EXPECT_NE(a.trans.items(), c.trans.items());
}

TEST(EndToEnd, PaperHeadlineEnergyAndScalingClaims)
{
    // Two orders of magnitude better energy than a core (Abstract).
    CostModel cm((AcceleratorConfig()));
    SimpleCpuModel cpu;
    double ratio = cpu.energyRatioVs(cm.accelerator().energyPerRowNj,
                                     {90, 10, 10});
    EXPECT_GT(ratio, 100.0);
    // Key logic below 10% of area after 4 generations (Section
    // VI-A).
    EXPECT_LT(cm.keyLogicFraction(4), 0.10);
    // The interface sustains the array's bandwidth demand.
    DmaModel dma;
    EXPECT_GT(dma.peakBandwidthGBs() * 1.073741824, // GiB demand
              DmaModel::demandGBs(90 * 16, 14.92));
}

TEST(EndToEnd, TimeMuxedDefectiveNetworkRetrains)
{
    // Oversized network + physical defects + retraining, all
    // through the time-multiplexed path.
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 90);
    AcceleratorConfig cfg;
    cfg.inputs = 8;
    cfg.hidden = 3;
    cfg.outputs = 3;
    Accelerator accel(cfg, {8, 3, 3});
    TimeMuxedMlp mux(accel, {4, 6, 3}); // 2 batches of hidden
    Rng rng(13);
    DeepWeights w = Trainer({6, 40, 0.3, 0.1}).train(mux, ds, rng);
    double clean = evalAccuracy(mux, ds);
    EXPECT_GT(clean, 0.7);

    DefectInjector inj(accel, SitePool::inputAndHidden());
    inj.inject(2, rng);
    Trainer({6, 15, 0.3, 0.1}).train(mux, ds, rng, &w);
    EXPECT_GT(evalAccuracy(mux, ds), 0.6);
}

TEST(EndToEnd, SparedAndDecodedPathsCompose)
{
    // Spare outputs written through a (clean) decoder still match
    // the plain network: the subsystems compose.
    AcceleratorConfig cfg;
    cfg.inputs = 8;
    cfg.hidden = 4;
    cfg.outputs = 6;
    MlpTopology logical{8, 4, 3};
    Accelerator accel(cfg, fullRowTopology(logical, cfg));
    RowPlan plan = sparePlan(logical, 2);
    RowMappedMlp spared(accel, logical, plan);
    DeepWeights w(logical);
    Rng rng(17);
    w.initRandom(rng, 1.0);

    // Route the replicated weights through the write decoder.
    DeepWeights dup(fullRowTopology(logical, cfg));
    for (int j = 0; j < logical.hidden; ++j)
        for (int i = 0; i <= logical.inputs; ++i)
            dup.at(0, j, i) = w.at(0, j, i);
    for (int k = 0; k < logical.outputs; ++k)
        for (int row : plan[static_cast<size_t>(k)])
            for (int j = 0; j <= logical.hidden; ++j)
                dup.at(1, row, j) = w.at(1, k, j);
    WriteDecoder dec(cfg.hidden + cfg.outputs);
    writeWeightsThroughDecoder(accel, dup, dec);

    Accelerator plain(cfg, logical);
    plain.setWeights(w);
    for (int t = 0; t < 20; ++t) {
        std::vector<double> in(8);
        for (double &v : in)
            v = rng.nextDouble();
        EXPECT_EQ(spared.forward(in).output(), plain.forward(in).output());
    }
}

} // namespace
} // namespace dtann
