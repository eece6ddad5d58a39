/**
 * @file
 * Selective output replication: planning, the row-mapped voting
 * forward model under replicate plans, and agreement with the
 * median voter under every plan kind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>

#include "ann/trainer.hh"
#include "data/synth_uci.hh"
#include "mitigate/mitigator.hh"

namespace dtann {
namespace {

/** 16x8x6 array mapping a 4-6-3 task: 3 spare output rows. */
AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 8;
    cfg.outputs = 6;
    return cfg;
}

MlpTopology
logicalTopo()
{
    return {4, 6, 3};
}

TEST(PlanOutputReplication, CleanMapLeavesSingletons)
{
    RowPlan plan =
        planOutputReplication(DefectMap(), logicalTopo(), smallArray());
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0], (std::vector<int>{0}));
    EXPECT_EQ(plan[1], (std::vector<int>{1}));
    EXPECT_EQ(plan[2], (std::vector<int>{2}));
}

TEST(PlanOutputReplication, FaultyRowRecruitsTwoCleanSpares)
{
    DefectMap map;
    map.markSuspect({UnitKind::Activation, Layer::Output, 1, 0});
    RowPlan plan =
        planOutputReplication(map, logicalTopo(), smallArray());
    EXPECT_EQ(plan[0], (std::vector<int>{0}));
    EXPECT_EQ(plan[1], (std::vector<int>{1, 3, 4}));
    EXPECT_EQ(plan[2], (std::vector<int>{2}));

    // A faulty spare is skipped in favour of the next clean one.
    map.markSuspect({UnitKind::AdderStage, Layer::Output, 3, 0});
    plan = planOutputReplication(map, logicalTopo(), smallArray());
    EXPECT_EQ(plan[1], (std::vector<int>{1, 4, 5}));
}

TEST(PlanOutputReplication, SparesAreSharedAndRunOut)
{
    DefectMap map;
    map.markSuspect({UnitKind::Activation, Layer::Output, 0, 0});
    map.markSuspect({UnitKind::Activation, Layer::Output, 1, 0});
    RowPlan plan =
        planOutputReplication(map, logicalTopo(), smallArray());
    // Row 0 takes the first two spares (median-of-3), row 1 gets the
    // last one (pair average), each spare used exactly once.
    EXPECT_EQ(plan[0], (std::vector<int>{0, 3, 4}));
    EXPECT_EQ(plan[1], (std::vector<int>{1, 5}));
    EXPECT_EQ(plan[2], (std::vector<int>{2}));

    // Every row faulty: no clean spare left, graceful degrade to
    // retrain-only (all singletons).
    DefectMap all;
    for (int n = 0; n < smallArray().outputs; ++n)
        all.markSuspect({UnitKind::Activation, Layer::Output, n, 0});
    plan = planOutputReplication(all, logicalTopo(), smallArray());
    for (size_t k = 0; k < plan.size(); ++k)
        EXPECT_EQ(plan[k], std::vector<int>{static_cast<int>(k)});
}

TEST(PlanOutputReplication, HiddenSuspectsDoNotReplicate)
{
    DefectMap map;
    map.markSuspect({UnitKind::Multiplier, Layer::Hidden, 1, 2});
    RowPlan plan =
        planOutputReplication(map, logicalTopo(), smallArray());
    for (size_t k = 0; k < plan.size(); ++k)
        EXPECT_EQ(plan[k], std::vector<int>{static_cast<int>(k)});
}

TEST(ReplicatedOutputMlp, CleanForwardMatchesPlainNetwork)
{
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    // Replicate every logical output (identical copies on a clean
    // array: the vote must be exact).
    RowMappedMlp rep(accel, logical, {{0, 3}, {1, 4, 5}, {2}});
    EXPECT_EQ(rep.spareRowsUsed(), 3);
    Accelerator plain(smallArray(), logical);

    DeepWeights w(logical);
    Rng rng(3);
    w.initRandom(rng, 1.5);
    rep.setWeights(w);
    plain.setWeights(w);
    for (int t = 0; t < 30; ++t) {
        std::vector<double> in(4);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = rep.forward(in);
        Activations b = plain.forward(in);
        ASSERT_EQ(a.output().size(), b.output().size());
        for (size_t k = 0; k < a.output().size(); ++k)
            EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k]);
        ASSERT_EQ(a.hidden().size(),
                  static_cast<size_t>(logical.hidden));
    }
}

TEST(ReplicatedOutputMlp, BatchAgreesWithScalarForward)
{
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    RowMappedMlp rep(accel, logical, {{0, 3, 4}, {1}, {2, 5}});

    DeepWeights w(logical);
    Rng rng(11);
    w.initRandom(rng, 1.5);
    // Wreck one replicated row so the vote actually matters.
    Rng inj(41);
    accel.injectDefects({UnitKind::Activation, Layer::Output, 0, 0}, 15,
                        inj);
    rep.setWeights(w);

    std::vector<std::vector<double>> rows(20, std::vector<double>(4));
    for (std::vector<double> &row : rows)
        for (double &v : row)
            v = rng.nextDouble();
    std::vector<Activations> batch = rep.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        Activations one = rep.forward(rows[r]);
        EXPECT_EQ(batch[r].output(), one.output()) << "row " << r;
        EXPECT_EQ(batch[r].hidden(), one.hidden()) << "row " << r;
    }
}

TEST(ReplicatedOutputMlp, MedianOfThreeRejectsBrokenCopyExactly)
{
    // The replicate analog of Spare.MedianOfThreeRejectsSingleBroken-
    // CopyExactly: same medianVote rule, so one wrecked copy out of
    // three leaves the voted output bit-identical to the clean
    // network.
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    RowMappedMlp rep(accel, logical, {{0}, {1, 3, 4}, {2}});
    Accelerator clean(smallArray(), logical);

    DeepWeights w(logical);
    Rng rng(7);
    w.initRandom(rng, 1.5);
    rep.setWeights(w);
    clean.setWeights(w);

    UnitSite site{UnitKind::Activation, Layer::Output, 1, 0};
    Rng inj(31);
    accel.injectDefects(site, 30, inj);

    for (int t = 0; t < 60; ++t) {
        std::vector<double> in(4);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = rep.forward(in);
        Activations b = clean.forward(in);
        for (size_t k = 0; k < a.output().size(); ++k)
            EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k])
                << "output " << k << " trial " << t;
    }
}

TEST(ReplicatedOutputMlp, PairAverageHalvesDeviation)
{
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    RowMappedMlp rep(accel, logical, {{0}, {1, 3}, {2}});
    Accelerator plain(smallArray(), logical);
    Accelerator clean(smallArray(), logical);

    DeepWeights w(logical);
    Rng rng(5);
    w.initRandom(rng, 1.5);
    rep.setWeights(w);
    plain.setWeights(w);
    clean.setWeights(w);

    UnitSite site{UnitKind::Activation, Layer::Output, 1, 0};
    Rng inj1(99), inj2(99);
    accel.injectDefects(site, 30, inj1);
    plain.injectDefects(site, 30, inj2);

    double max_dev_rep = 0.0, max_dev_plain = 0.0;
    for (int t = 0; t < 60; ++t) {
        std::vector<double> in(4);
        for (double &v : in)
            v = rng.nextDouble();
        double ref = clean.forward(in).output()[1];
        max_dev_rep = std::max(
            max_dev_rep, std::abs(rep.forward(in).output()[1] - ref));
        max_dev_plain = std::max(
            max_dev_plain,
            std::abs(plain.forward(in).output()[1] - ref));
    }
    EXPECT_GT(max_dev_plain, 0.0) << "fault never excited";
    EXPECT_LE(max_dev_rep, 0.5 * max_dev_plain + 1e-9);
}

TEST(ReplicatedOutputMlp, VoteAgreesWithMedianVoteRule)
{
    // The voter path *is* medianVote: recompute the vote by hand
    // from the raw full-row activations and require exact agreement,
    // for a replicate, a spare and a remap plan.
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    Rng inj(43);
    accel.injectDefects({UnitKind::Activation, Layer::Output, 0, 0}, 20,
                        inj);
    Rng rng(13);
    for (const RowPlan &groups :
         {RowPlan{{0, 3, 4}, {1, 5}, {2}}, sparePlan(logical, 2),
          RowPlan{{3}, {1}, {5}}}) {
        RowMappedMlp rep(accel, logical, groups);

        DeepWeights w(logical);
        w.initRandom(rng, 1.5);
        rep.setWeights(w);

        for (int t = 0; t < 20; ++t) {
            std::vector<double> in(4);
            for (double &v : in)
                v = rng.nextDouble();
            Activations voted = rep.forward(in);
            Activations raw = accel.forward(in);
            for (size_t k = 0; k < groups.size(); ++k) {
                std::vector<double> copies;
                for (int row : groups[k])
                    copies.push_back(
                        raw.output()[static_cast<size_t>(row)]);
                EXPECT_DOUBLE_EQ(voted.output()[k], medianVote(copies))
                    << "output " << k << " trial " << t;
            }
        }
    }
}

TEST(ReplicatedOutputMlp, RejectsMalformedGroups)
{
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    EXPECT_EXIT(RowMappedMlp(accel, logical, {{0}, {1}}),
                ::testing::KilledBySignal(SIGABRT), "arity");
    EXPECT_EXIT(RowMappedMlp(accel, logical, {{0}, {}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "empty");
    EXPECT_EXIT(RowMappedMlp(accel, logical, {{0, 3}, {1, 3}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "share");
    EXPECT_EXIT(RowMappedMlp(accel, logical, {{0, 6}, {1}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "range");
    // A group need not start with its own row: that is a remap.
    EXPECT_EQ(RowMappedMlp(accel, logical, {{3}, {1}, {2}}).spareRowsUsed(),
              1);
}

TEST(ReplicatedOutputMlp, TrainableEndToEnd)
{
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 120);
    MlpTopology logical = logicalTopo();
    Accelerator accel(smallArray(), fullRowTopology(logical, smallArray()));
    RowMappedMlp rep(accel, logical, {{0, 3, 4}, {1, 5}, {2}});
    Trainer trainer({6, 60, 0.2, 0.1});
    Rng rng(5);
    trainer.train(rep, ds, rng);
    EXPECT_GT(evalAccuracy(rep, ds), 0.8);
}

} // namespace
} // namespace dtann
