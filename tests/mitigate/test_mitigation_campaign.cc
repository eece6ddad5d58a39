/**
 * @file
 * Mitigation campaign: shape, cross-strategy fairness, and
 * bit-identical results for any worker count.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "mitigate/campaign.hh"

namespace dtann {
namespace {

MitigationConfig
tinyConfig()
{
    MitigationConfig cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 3};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 7;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 6; // 3 spare rows for the remap strategy
    cfg.bist.vectorsPerUnit = 6;
    return cfg;
}

TEST(MitigationCampaign, CurveShapeAndOrdering)
{
    MitigationConfig cfg = tinyConfig();
    auto curves = runMitigationCampaign(cfg);

    // Task-major, then config strategy order.
    ASSERT_EQ(curves.size(), cfg.strategies.size());
    for (size_t s = 0; s < curves.size(); ++s) {
        EXPECT_EQ(curves[s].task, "iris");
        EXPECT_EQ(curves[s].strategy, cfg.strategies[s]);
        ASSERT_EQ(curves[s].points.size(), cfg.defectCounts.size());
        for (size_t d = 0; d < cfg.defectCounts.size(); ++d) {
            const MitigationPoint &p = curves[s].points[d];
            EXPECT_EQ(p.defects, cfg.defectCounts[d]);
            EXPECT_GE(p.accuracy, 0.0);
            EXPECT_LE(p.accuracy, 1.0);
            EXPECT_GE(p.coverage, 0.0);
            EXPECT_LE(p.coverage, 1.0);
            EXPECT_GE(p.mitigated, 0.0);
        }
    }

    // The clean point of every strategy learns the task, and blind
    // strategies report full coverage by convention.
    for (const MitigationCurve &c : curves) {
        EXPECT_GT(c.points[0].accuracy, 0.6)
            << strategyName(c.strategy);
        if (c.strategy == Strategy::NoOp ||
            c.strategy == Strategy::RetrainOnly) {
            EXPECT_DOUBLE_EQ(c.points[0].coverage, 1.0);
        }
    }
}

TEST(MitigationCampaign, BitIdenticalAcrossThreadCounts)
{
    MitigationConfig cfg = tinyConfig();
    cfg.threads = 1;
    auto serial = runMitigationCampaign(cfg);
    cfg.threads = 4;
    auto parallel = runMitigationCampaign(cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].task, parallel[i].task);
        EXPECT_EQ(serial[i].strategy, parallel[i].strategy);
        ASSERT_EQ(serial[i].points.size(), parallel[i].points.size());
        for (size_t d = 0; d < serial[i].points.size(); ++d) {
            const MitigationPoint &a = serial[i].points[d];
            const MitigationPoint &b = parallel[i].points[d];
            EXPECT_EQ(a.accuracy, b.accuracy);
            EXPECT_EQ(a.stddev, b.stddev);
            EXPECT_EQ(a.coverage, b.coverage);
            EXPECT_EQ(a.mitigated, b.mitigated);
        }
    }
}

TEST(MitigationCampaign, NoOpDegradesAtLeastAsMuchAsMitigations)
{
    // Not a strict theorem per-seed, but at the aggregate level the
    // blind no-mitigation lower bound must not beat retraining on
    // the clean point (identical weights, identical array).
    MitigationConfig cfg = tinyConfig();
    auto curves = runMitigationCampaign(cfg);
    const MitigationCurve *noop = nullptr, *retrain = nullptr;
    for (const MitigationCurve &c : curves) {
        if (c.strategy == Strategy::NoOp)
            noop = &c;
        if (c.strategy == Strategy::RetrainOnly)
            retrain = &c;
    }
    ASSERT_NE(noop, nullptr);
    ASSERT_NE(retrain, nullptr);
    // Retraining warm-starts from the baseline weights, so on the
    // defect-free array it cannot fall far below the no-op bound.
    EXPECT_GT(retrain->points[0].accuracy,
              noop->points[0].accuracy - 0.15);
}

TEST(MitigationCampaign, MapStrategiesReportMeasuredCoverage)
{
    MitigationConfig cfg = tinyConfig();
    auto curves = runMitigationCampaign(cfg);
    for (const MitigationCurve &c : curves) {
        if (c.strategy != Strategy::BypassFaulty &&
            c.strategy != Strategy::RemapToSpares)
            continue;
        // With defects present the diagnosis coverage is a measured
        // quantity in [0, 1]; with none it is 1.0 by convention.
        EXPECT_DOUBLE_EQ(c.points[0].coverage, 1.0);
        EXPECT_GE(c.points[1].coverage, 0.0);
        EXPECT_LE(c.points[1].coverage, 1.0);
    }
}

TEST(MitigationCampaign, StarvedShardReportsZeroSamplesNotNaN)
{
    // Cell order is strategy-major within a (task, defect count):
    // with 2 strategies x 2 reps and shardCount 4, shard 0 computes
    // only (NoOp, rep 0) — RetrainOnly is starved entirely. The
    // aggregate must say so (samples == 0, all-zero means), never
    // leak the uncomputed placeholder outcomes or emit NaN.
    MitigationConfig cfg = tinyConfig();
    cfg.strategies = {Strategy::NoOp, Strategy::RetrainOnly};
    cfg.defectCounts = {3};
    cfg.shardCount = 4;
    cfg.shardIndex = 0;
    auto curves = runMitigationCampaign(cfg);
    ASSERT_EQ(curves.size(), 2u);
    ASSERT_EQ(curves[0].points.size(), 1u);

    const MitigationPoint &fed = curves[0].points[0];
    EXPECT_EQ(fed.samples, 1);
    EXPECT_GT(fed.accuracy, 0.0);

    const MitigationPoint &starved = curves[1].points[0];
    EXPECT_EQ(starved.samples, 0);
    EXPECT_EQ(starved.accuracy, 0.0);
    EXPECT_EQ(starved.stddev, 0.0);
    EXPECT_EQ(starved.coverage, 0.0);
    EXPECT_EQ(starved.mitigated, 0.0);
    EXPECT_FALSE(std::isnan(starved.accuracy));
    EXPECT_FALSE(std::isnan(starved.stddev));
    EXPECT_FALSE(std::isnan(curves[1].paretoAccuracy));
    EXPECT_EQ(curves[1].paretoAccuracy, 0.0);

    std::string j = curves[1].toJson();
    EXPECT_NE(j.find("\"count\":0"), std::string::npos);
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_EQ(j.find("inf"), std::string::npos);
}

TEST(Fig10, StarvedShardFoldsOnlyComputedCells)
{
    // The Fig 10 counterpart of the check above. Cells are
    // (d0, rep 0), (d3, rep 0), (d3, rep 1); shard 1 of 2 computes
    // only (d3, rep 0). The starved defect-free point reports
    // all-zero statistics, and the d3 point is that one cell's
    // accuracy, not averaged with an uncomputed placeholder.
    Fig10Config cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 3};
    cfg.repetitions = 1;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 7;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;
    // One repetition unsharded computes the same (d3, rep 0) cell.
    auto single = runFig10(cfg);
    cfg.repetitions = 2;
    cfg.shardCount = 2;
    cfg.shardIndex = 1;
    auto shard = runFig10(cfg);

    ASSERT_EQ(shard.size(), 1u);
    ASSERT_EQ(shard[0].points.size(), 2u);
    const Fig10Point &starved = shard[0].points[0];
    EXPECT_EQ(starved.accuracy, 0.0);
    EXPECT_EQ(starved.stddev, 0.0);
    EXPECT_FALSE(std::isnan(starved.stddev));
    const Fig10Point &fed = shard[0].points[1];
    EXPECT_GT(fed.accuracy, 0.0);
    EXPECT_EQ(fed.accuracy, single[0].points[1].accuracy);
    EXPECT_EQ(fed.stddev, 0.0);
}

TEST(MitigationCampaign, CurvesCarryCostAndPareto)
{
    MitigationConfig cfg = tinyConfig();
    auto curves = runMitigationCampaign(cfg);
    for (const MitigationCurve &c : curves) {
        // Costs must match the standalone cost model for this
        // (strategy, array, task) triple...
        MitigationCost expect = mitigationCost(
            c.strategy, cfg.array, MlpTopology{4, 6, 3}, cfg.bist);
        EXPECT_EQ(c.cost.spareRows, expect.spareRows);
        EXPECT_EQ(c.cost.missionTransistors, expect.missionTransistors);
        EXPECT_EQ(c.cost.testTransistors, expect.testTransistors);
        EXPECT_DOUBLE_EQ(c.cost.areaOverhead, expect.areaOverhead);
        EXPECT_DOUBLE_EQ(c.cost.energyOverhead, expect.energyOverhead);

        // ...and obey the accounting rules: only diagnosis-driven
        // strategies spend scan/BIST budget, only spare-consuming
        // ones are charged rows.
        bool blind = c.strategy == Strategy::NoOp ||
            c.strategy == Strategy::RetrainOnly ||
            c.strategy == Strategy::ClampActivations;
        EXPECT_EQ(c.cost.bistVectorsPerUnit,
                  blind ? 0 : cfg.bist.vectorsPerUnit);
        EXPECT_EQ(c.cost.testTransistors > 0, !blind);
        bool spares = c.strategy == Strategy::RemapToSpares ||
            c.strategy == Strategy::ReplicateCritical;
        EXPECT_EQ(c.cost.spareRows, spares ? 3 : 0);
        EXPECT_GE(c.cost.areaOverhead, 0.0);
        EXPECT_GE(c.cost.energyOverhead, 0.0);
        EXPECT_LT(c.cost.areaOverhead, 1.0)
            << "mitigation logic must stay a fraction of the array";

        // The Pareto y coordinate averages the defective points.
        EXPECT_DOUBLE_EQ(c.paretoAccuracy, c.points[1].accuracy);
    }

    // Free strategies cost nothing; hardware-backed ones don't.
    for (const MitigationCurve &c : curves) {
        bool free = c.strategy == Strategy::NoOp ||
            c.strategy == Strategy::RetrainOnly;
        EXPECT_EQ(c.cost.missionTransistors == 0, free)
            << strategyName(c.strategy);
    }
}

TEST(MitigationCurve, JsonCarriesStrategyAndPoints)
{
    MitigationCurve c;
    c.task = "iris";
    c.strategy = Strategy::BypassFaulty;
    c.points.push_back({3, 0.9, 0.01, 0.75, 2.0, 5});
    c.cost.spareRows = 2;
    c.cost.areaOverhead = 0.125;
    c.paretoAccuracy = 0.9;
    std::string j = c.toJson();
    EXPECT_NE(j.find("\"task\":\"iris\""), std::string::npos);
    EXPECT_NE(j.find("\"strategy\":\"bypass\""), std::string::npos);
    EXPECT_NE(j.find("\"defects\":3"), std::string::npos);
    EXPECT_NE(j.find("\"coverage\":"), std::string::npos);
    EXPECT_NE(j.find("\"count\":5"), std::string::npos);
    EXPECT_NE(j.find("\"cost\":{\"spare_rows\":2"), std::string::npos);
    EXPECT_NE(j.find("\"pareto\":{\"accuracy\":0.9"),
              std::string::npos);
    EXPECT_NE(j.find("\"area_overhead\":0.125"), std::string::npos);

    std::string arr = toJson(std::vector<MitigationCurve>{c, c});
    EXPECT_EQ(arr.front(), '[');
    EXPECT_EQ(arr.back(), ']');
}

} // namespace
} // namespace dtann
