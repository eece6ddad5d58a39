/**
 * @file
 * Parallel campaign engine tests.
 *
 * The central contract: campaign output is bit-identical for any
 * worker-thread count, because every cell derives its randomness
 * from counter-based sub-streams (Rng::substream) instead of the
 * order-dependent split() chain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/json.hh"
#include "core/campaign.hh"

namespace dtann {
namespace {

Fig10Config
tinyFig10()
{
    Fig10Config cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 4};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 7;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;
    return cfg;
}

void
expectIdentical(const std::vector<Fig10Curve> &a,
                const std::vector<Fig10Curve> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].task, b[c].task);
        ASSERT_EQ(a[c].points.size(), b[c].points.size());
        for (size_t p = 0; p < a[c].points.size(); ++p) {
            EXPECT_EQ(a[c].points[p].defects, b[c].points[p].defects);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(a[c].points[p].accuracy, b[c].points[p].accuracy);
            EXPECT_EQ(a[c].points[p].stddev, b[c].points[p].stddev);
        }
    }
}

TEST(EngineDeterminism, Fig10IdenticalForOneTwoAndEightThreads)
{
    Fig10Config cfg = tinyFig10();
    cfg.threads = 1;
    auto one = runFig10(cfg);
    cfg.threads = 2;
    auto two = runFig10(cfg);
    cfg.threads = 8;
    auto eight = runFig10(cfg);
    expectIdentical(one, two);
    expectIdentical(one, eight);
}

TEST(EngineDeterminism, Fig11IdenticalAcrossThreadCounts)
{
    Fig11Config cfg;
    cfg.tasks = {"iris"};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 9;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;

    cfg.threads = 1;
    auto serial = runFig11(cfg);
    cfg.threads = 8;
    auto parallel = runFig11(cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); ++c) {
        ASSERT_EQ(serial[c].samples.size(), parallel[c].samples.size());
        for (size_t s = 0; s < serial[c].samples.size(); ++s) {
            EXPECT_EQ(serial[c].samples[s].amplitude,
                      parallel[c].samples[s].amplitude);
            EXPECT_EQ(serial[c].samples[s].accuracy,
                      parallel[c].samples[s].accuracy);
            EXPECT_EQ(serial[c].samples[s].site,
                      parallel[c].samples[s].site);
        }
        EXPECT_EQ(serial[c].binAccuracy, parallel[c].binAccuracy);
    }
}

TEST(EngineDeterminism, Fig5IdenticalAcrossThreadCounts)
{
    Fig5Config cfg;
    cfg.op = Fig5Operator::Adder4;
    cfg.defects = 3;
    cfg.repetitions = 10;
    cfg.seed = 5;

    cfg.threads = 1;
    Fig5Result serial = runFig5(cfg);
    cfg.threads = 4;
    Fig5Result parallel = runFig5(cfg);

    EXPECT_EQ(serial.none.items(), parallel.none.items());
    EXPECT_EQ(serial.gate.items(), parallel.gate.items());
    EXPECT_EQ(serial.trans.items(), parallel.trans.items());
}

TEST(Engine, ProgressCallbackSeesEveryCell)
{
    Fig10Config cfg = tinyFig10();
    cfg.threads = 2;
    std::atomic<size_t> calls{0};
    size_t last_done = 0, reported_total = 0;
    bool monotone = true;
    cfg.onCellDone = [&](const CellReport &r) {
        // The engine serializes callbacks, so plain reads are safe.
        ++calls;
        monotone &= r.cellsDone == last_done + 1;
        last_done = r.cellsDone;
        reported_total = r.cellsTotal;
        EXPECT_EQ(r.task, "iris");
        EXPECT_GE(r.accuracy, 0.0);
        EXPECT_LE(r.accuracy, 1.0);
    };
    runFig10(cfg);

    // 1 defect-free cell + 2 repetitions of the 4-defect point.
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(last_done, 3u);
    EXPECT_EQ(reported_total, 3u);
    EXPECT_TRUE(monotone) << "cellsDone must increment by 1 per report";
}

TEST(Engine, RunCellsMapsFlatIndexToRowThenRep)
{
    // Flat index i walks the rows row-major, then by repetition; an
    // empty row takes no index. Journal keys come from (row, rep).
    struct Keys final : CellCache
    {
        std::mutex mu;
        std::vector<std::string> stored;
        bool lookup(const CellKey &, std::string &) override
        {
            return false;
        }
        void store(const CellKey &key, const std::string &) override
        {
            std::lock_guard<std::mutex> lk(mu);
            stored.push_back(key.toString());
        }
    };
    CellTable<std::string> table;
    table.campaign = "t";
    table.rows = {{"a", "x", 2, {}}, {"b", "y", 0, {}}, {"c", "z", 3, {}}};
    table.run = [](const CellRow &row, uint64_t rep) {
        return row.task + std::to_string(rep);
    };
    table.encode = [](const std::string &s) { return s; };
    table.decode = [](const JsonValue &v) { return v.asString(); };
    table.label = [](const CellRow &row, uint64_t rep,
                     const std::string &) {
        return CellReport{row.task, 0, static_cast<int>(rep), 0.0};
    };

    CampaignRunConfig config;
    config.threads = 3;
    using Cells = std::vector<std::optional<std::string>>;
    EXPECT_EQ(CampaignEngine(config).runCells(config, table),
              (Cells{"a0", "a1", "c0", "c1", "c2"}));

    // Shard 1 of 2 owns the odd flat indices.
    Keys journal;
    config.journal = &journal;
    config.shardCount = 2;
    config.shardIndex = 1;
    EXPECT_EQ(CampaignEngine(config).runCells(config, table),
              (Cells{std::nullopt, "a1", std::nullopt, "c1", std::nullopt}));
    std::sort(journal.stored.begin(), journal.stored.end());
    EXPECT_EQ(journal.stored,
              (std::vector<std::string>{"t/a/x/1", "t/c/z/1"}));
}

TEST(Engine, ThreadsFieldAndEnvironmentResolve)
{
    CampaignConfig cfg;
    cfg.threads = 3;
    CampaignEngine explicit_width(cfg);
    EXPECT_EQ(explicit_width.threads(), 3);

    setenv("DTANN_THREADS", "2", 1);
    cfg.threads = 0;
    CampaignEngine from_env(cfg);
    EXPECT_EQ(from_env.threads(), 2);
    unsetenv("DTANN_THREADS");
}

TEST(Engine, CampaignJsonExportsParse)
{
    Fig10Config cfg = tinyFig10();
    auto curves = runFig10(cfg);
    std::string json = toJson(curves);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"task\":\"iris\""), std::string::npos);
    EXPECT_NE(json.find("\"defects\":0"), std::string::npos);
    EXPECT_NE(json.find("\"accuracy\":"), std::string::npos);
}

} // namespace
} // namespace dtann
