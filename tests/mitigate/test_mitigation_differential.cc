/**
 * @file
 * Differential suite for the round-2 strategies: ClampActivations
 * and ReplicateCritical race NoOp/RetrainOnly on identical
 * injection streams, and the whole campaign export must be
 * bit-identical across worker thread counts and DTANN_LANES plane
 * widths. (The replicate voter's agreement with the spare-array
 * median voter is covered in test_replicate.cc.)
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "mitigate/campaign.hh"

#include "../common/strip_sim_telemetry.hh"

namespace dtann {
namespace {

/** The round-2 strategies against their blind baselines. */
MitigationConfig
diffConfig()
{
    MitigationConfig cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 3};
    cfg.strategies = {Strategy::NoOp, Strategy::RetrainOnly,
                      Strategy::ClampActivations,
                      Strategy::ReplicateCritical};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.2;
    cfg.retrainScale = 0.2;
    cfg.seed = 31;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 6;
    cfg.bist.vectorsPerUnit = 6;
    return cfg;
}

TEST(MitigationDifferential, BitIdenticalAcrossThreadsAndLanes)
{
    // Thread count and lane width are pure throughput knobs: the
    // exported results (accuracies, coverage, cost, Pareto —
    // everything except sim telemetry) must not move by a bit.
    MitigationConfig cfg = diffConfig();
    auto runAt = [&](int threads, const char *lanes) {
        if (lanes != nullptr)
            setenv("DTANN_LANES", lanes, 1);
        else
            unsetenv("DTANN_LANES");
        cfg.threads = threads;
        std::string json =
            stripSimTelemetry(toJson(runMitigationCampaign(cfg)));
        unsetenv("DTANN_LANES");
        return json;
    };
    std::string oracle = runAt(1, "64");
    EXPECT_EQ(runAt(4, "64"), oracle) << "thread count leaked";
    EXPECT_EQ(runAt(1, "256"), oracle) << "lane width leaked";
    EXPECT_EQ(runAt(4, "512"), oracle)
        << "thread x lane combination leaked";
    EXPECT_EQ(runAt(4, nullptr), oracle) << "auto lane width leaked";
}

TEST(MitigationDifferential, InjectionStreamIgnoresStrategyLineup)
{
    // Every strategy of a (task, defect count, rep) cell must face
    // identical physical defects. Observable consequence: a
    // strategy's curve cannot depend on which *other* strategies
    // race alongside it — if the injection stream carried a strategy
    // coordinate, reordering or shrinking the lineup would shift it.
    MitigationConfig cfg = diffConfig();
    auto curveFor = [](const std::vector<MitigationCurve> &curves,
                       Strategy s) -> const MitigationCurve * {
        for (const MitigationCurve &c : curves)
            if (c.strategy == s)
                return &c;
        return nullptr;
    };
    auto full = runMitigationCampaign(cfg);

    MitigationConfig solo = cfg;
    solo.strategies = {Strategy::ClampActivations};
    auto alone = runMitigationCampaign(solo);

    MitigationConfig pair = cfg;
    pair.strategies = {Strategy::ReplicateCritical, Strategy::NoOp};
    auto reordered = runMitigationCampaign(pair);

    for (Strategy s :
         {Strategy::ClampActivations, Strategy::ReplicateCritical,
          Strategy::NoOp}) {
        const MitigationCurve *a = curveFor(full, s);
        const MitigationCurve *b = s == Strategy::ClampActivations
            ? curveFor(alone, s)
            : curveFor(reordered, s);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr) << strategyName(s);
        ASSERT_EQ(a->points.size(), b->points.size());
        for (size_t d = 0; d < a->points.size(); ++d) {
            EXPECT_EQ(a->points[d].accuracy, b->points[d].accuracy)
                << strategyName(s) << " defects "
                << a->points[d].defects;
            EXPECT_EQ(a->points[d].stddev, b->points[d].stddev);
            EXPECT_EQ(a->points[d].coverage, b->points[d].coverage);
            EXPECT_EQ(a->points[d].mitigated, b->points[d].mitigated);
        }
    }
}

TEST(MitigationDifferential, RoundTwoStrategiesBehaveOnBothPoints)
{
    MitigationConfig cfg = diffConfig();
    auto curves = runMitigationCampaign(cfg);
    ASSERT_EQ(curves.size(), cfg.strategies.size());
    for (const MitigationCurve &c : curves) {
        if (c.strategy != Strategy::ClampActivations &&
            c.strategy != Strategy::ReplicateCritical)
            continue;
        // Clean point: the new forward paths (clamp window /
        // replicated vote) must not break a defect-free array.
        EXPECT_GT(c.points[0].accuracy, 0.6)
            << strategyName(c.strategy);
        // Defective point: still a valid probability.
        EXPECT_GE(c.points[1].accuracy, 0.0);
        EXPECT_LE(c.points[1].accuracy, 1.0);
        if (c.strategy == Strategy::ClampActivations) {
            // Blind: full coverage by contract, every physical
            // activation unit instrumented.
            EXPECT_DOUBLE_EQ(c.points[1].coverage, 1.0);
            EXPECT_DOUBLE_EQ(
                c.points[1].mitigated,
                static_cast<double>(cfg.array.hidden +
                                    cfg.array.outputs));
        } else {
            EXPECT_GE(c.points[1].coverage, 0.0);
            EXPECT_LE(c.points[1].coverage, 1.0);
        }
    }
}

} // namespace
} // namespace dtann
