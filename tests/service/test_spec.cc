/**
 * @file
 * Scenario-spec tests: parse -> toJson -> parse identity for every
 * campaign kind, the Fig 5 sweep expander, env overrides, and the
 * error messages malformed specs produce.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/json.hh"
#include "service/builtin_specs.hh"
#include "service/runner.hh"
#include "service/spec.hh"

namespace dtann {
namespace {

TEST(ScenarioSpec, RoundTripIsIdentityForEveryBuiltin)
{
    for (const std::string &kind : builtinSpecNames())
        for (bool full : {false, true}) {
            ScenarioSpec spec = builtinSpec(kind, full);
            std::string echo = spec.toJson();
            ScenarioSpec reparsed = ScenarioSpec::parse(echo);
            EXPECT_EQ(reparsed.toJson(), echo)
                << kind << (full ? " full" : " quick");
            EXPECT_EQ(reparsed.kind, kind);
        }
}

TEST(ScenarioSpec, ParsePopulatesConfigFields)
{
    ScenarioSpec spec = ScenarioSpec::parse(R"({
        "kind": "fig10",
        "name": "my-run",
        "repetitions": 5,
        "seed": 99,
        "tasks": ["iris", "wine"],
        "folds": 3,
        "rows": 120,
        "epoch_scale": 0.5,
        "retrain_scale": 0.4,
        "defect_counts": [0, 4, 8],
        "retrain": false
    })");
    EXPECT_EQ(spec.kind, "fig10");
    EXPECT_EQ(spec.name, "my-run");
    EXPECT_EQ(spec.fig10.repetitions, 5);
    EXPECT_EQ(spec.fig10.seed, 99u);
    EXPECT_EQ(spec.fig10.tasks,
              (std::vector<std::string>{"iris", "wine"}));
    EXPECT_EQ(spec.fig10.folds, 3);
    EXPECT_EQ(spec.fig10.rows, 120u);
    EXPECT_DOUBLE_EQ(spec.fig10.epochScale, 0.5);
    EXPECT_EQ(spec.fig10.defectCounts, (std::vector<int>{0, 4, 8}));
    EXPECT_FALSE(spec.fig10.retrain);
}

TEST(ScenarioSpec, OmittedFieldsKeepDefaults)
{
    ScenarioSpec spec = ScenarioSpec::parse("{\"kind\": \"fig11\"}");
    Fig11Config defaults;
    EXPECT_EQ(spec.name, "fig11");
    EXPECT_EQ(spec.fig11.repetitions, defaults.repetitions);
    EXPECT_EQ(spec.fig11.folds, defaults.folds);
    EXPECT_EQ(spec.fig11.seed, defaults.seed);
}

TEST(ScenarioSpec, MitigationStrategiesAndPoolParse)
{
    ScenarioSpec spec = ScenarioSpec::parse(R"({
        "kind": "mitigation",
        "strategies": ["retrain", "remap", "clamp", "replicate"],
        "bist_vectors_per_unit": 4,
        "inject_pool": "output_critical"
    })");
    EXPECT_EQ(spec.mitigation.strategies,
              (std::vector<Strategy>{Strategy::RetrainOnly,
                                     Strategy::RemapToSpares,
                                     Strategy::ClampActivations,
                                     Strategy::ReplicateCritical}));
    EXPECT_EQ(spec.mitigation.bist.vectorsPerUnit, 4);
    EXPECT_EQ(spec.mitigation.injectPool, SitePool::outputCritical());

    // An omitted strategy list races every implemented strategy.
    ScenarioSpec all = ScenarioSpec::parse("{\"kind\": \"mitigation\"}");
    EXPECT_EQ(all.mitigation.strategies, allStrategies());
}

/** Expect parse(text) to throw a JsonError mentioning @p needle. */
void
expectSpecError(const std::string &text, const std::string &needle)
{
    try {
        ScenarioSpec::parse(text);
        FAIL() << "expected JsonError for: " << text;
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
    }
}

TEST(ScenarioSpec, MalformedSpecsNameTheProblem)
{
    expectSpecError("[1, 2]", "object");
    expectSpecError("{}", "kind");
    expectSpecError("{\"kind\": \"fig12\"}",
                    "unknown campaign kind 'fig12'");
    expectSpecError("{\"kind\": \"fig12\"}", "fig5, fig10");
    expectSpecError("{\"kind\": \"fig10\", \"repetitions\": 0}",
                    "repetitions");
    expectSpecError("{\"kind\": \"fig10\", \"folds\": \"many\"}",
                    "folds");
    expectSpecError("{\"kind\": \"fig5\", \"operators\": [\"nand\"]}",
                    "unknown operator 'nand'");
    expectSpecError("{\"kind\": \"fig5\", \"fa_style\": \"tree\"}",
                    "unknown fa_style 'tree'");
    expectSpecError(
        "{\"kind\": \"mitigation\", \"strategies\": [\"pray\"]}",
        "unknown strategy 'pray'");
    // The message names every accepted strategy.
    expectSpecError(
        "{\"kind\": \"mitigation\", \"strategies\": [\"pray\"]}",
        strategyNameList());
    expectSpecError(
        "{\"kind\": \"fig10\", \"weighting\": \"alphabetical\"}",
        "unknown weighting");
    expectSpecError("{\"kind\": \"fig10\",", "line 1");
}

TEST(ScenarioSpec, CollidingCellKeysAreRefused)
{
    // Two cells with one key would share one journal entry (the
    // second would replay the first's payload), so parsing names
    // the first repeated key.
    expectSpecError(R"({"kind":"fig5","operators":["adder4","adder4"]})",
                    "cell key 'fig5/adder4/d1/0'");
    expectSpecError(R"({"kind":"fig5","defect_counts":[3,3]})",
                    "cell key 'fig5/adder4/d3/0'");
    expectSpecError(R"({"kind":"fig10","tasks":["iris","iris"]})",
                    "cell key 'fig10/iris/v0:d0/0'");
    expectSpecError(R"({"kind":"fig11","tasks":["wine","wine"]})",
                    "cell key 'fig11/wine/v0/0'");
    expectSpecError(R"({"kind":"mitigation","tasks":["iris","iris"]})",
                    "cell key 'mitigation/iris/v0:d0:");
    expectSpecError(R"({"kind":"mitigation","tasks":["iris"],
                        "strategies":["noop","retrain","noop"]})",
                    "cell key 'mitigation/iris/v0:d0:noop/0'");
    // A repeated fig5 operator is refused by the sweep parser itself,
    // before expand() builds the cross product.
    const char *repeated_op =
        R"({"kind":"fig5","repetitions":1,"defect_counts":[5,6],
            "operators":["adder4","multiplier4","adder4"]})";
    expectSpecError(repeated_op, "cell key 'fig5/adder4/d5/0'");
    EXPECT_THROW(Fig5Sweep::fromJson(jsonParse(repeated_op)), JsonError);
}

TEST(ScenarioSpec, RepeatedDefectCountsKeepDistinctKeys)
{
    // Fig 10 and mitigation keys carry the variant index, so a
    // repeated defect count is two distinct points, not a collision.
    ScenarioSpec fig10 = ScenarioSpec::parse(
        R"({"kind":"fig10","tasks":["iris"],"defect_counts":[3,3],
            "repetitions":2})");
    std::vector<CellRow> rows = fig10.cellRows();
    EXPECT_EQ(cellCount(rows), 4u);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].variant, "v0:d3");
    EXPECT_EQ(rows[1].variant, "v1:d3");

    ScenarioSpec mitigation = ScenarioSpec::parse(
        R"({"kind":"mitigation","tasks":["iris"],"defect_counts":[4,4],
            "strategies":["retrain"],"repetitions":2})");
    EXPECT_EQ(cellCount(mitigation.cellRows()), 4u);
}

/** A one-task Fig 11 spec of @p reps repetitions. */
std::string
fig11Reps(size_t reps)
{
    return R"({"kind":"fig11","tasks":["iris"],"repetitions":)" +
        std::to_string(reps) + "}";
}

TEST(ScenarioSpec, CellBoundIsInclusive)
{
    // Parsing lists one row however many repetitions it holds, and
    // nothing runs.
    ScenarioSpec spec = ScenarioSpec::parse(fig11Reps(kMaxCells));
    std::vector<CellRow> rows = spec.cellRows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].task, "iris");
    EXPECT_EQ(rows[0].reps, kMaxCells);
    EXPECT_EQ(cellCount(rows), kMaxCells);
}

TEST(ScenarioSpec, OneCellOverTheBoundIsRefused)
{
    // The refusal names the count, before any cell or task context.
    expectSpecError(fig11Reps(kMaxCells + 1),
                    std::to_string(kMaxCells + 1) + " cells");
    Fig11Config fig11;
    fig11.tasks = {"iris"};
    fig11.repetitions = static_cast<int>(kMaxCells) + 1;
    EXPECT_THROW(runFig11(fig11), JsonError);
    // Rows add up across tasks: two halves plus one is over.
    expectSpecError(
        R"({"kind":"fig11","tasks":["iris","wine"],"repetitions":)" +
            std::to_string(kMaxCells / 2 + 1) + "}",
        std::to_string(kMaxCells + 2) + " cells");
    // A fig5 sweep is refused before its variants are built: 1025
    // operators x 1025 defect counts is over, one cell each.
    std::string ops, counts;
    for (int i = 0; i < 1025; ++i) {
        ops += std::string(i ? "," : "") + "\"adder4\"";
        counts += (i ? "," : "") + std::to_string(i);
    }
    expectSpecError(R"({"kind":"fig5","repetitions":1,"operators":[)" +
                        ops + "],\"defect_counts\":[" + counts + "]}",
                    std::to_string(1025 * 1025) + " cells");
    // The count is exact before any row is built: fig10 and
    // mitigation count one cell at 0 defects, and axis products
    // past the bound are named in full.
    std::string over = std::to_string(kMaxCells);
    expectSpecError(R"({"kind":"fig10","tasks":["iris"],"defect_counts":[0,1],
                        "repetitions":)" + over + "}",
                    std::to_string(kMaxCells + 1) + " cells");
    std::string half = std::to_string(kMaxCells / 2);
    expectSpecError(R"({"kind":"mitigation","tasks":["iris"],
                        "strategies":["noop","retrain"],
                        "defect_counts":[0,1],"repetitions":)" +
                        half + "}",
                    std::to_string(kMaxCells + 2) + " cells");
    expectSpecError(R"({"kind":"fig11","tasks":["iris","wine"],
                        "repetitions":1073741824})",
                    "2147483648 cells");
    // 4096 tasks x 4096 strategies x 1024 counts x 2^30 repetitions
    // is 2^64 cells: the count saturates instead of wrapping to 0.
    std::string tasks, strategies, ones;
    for (int i = 0; i < 4096; ++i) {
        tasks += std::string(i ? "," : "") + "\"iris\"";
        strategies += std::string(i ? "," : "") + "\"noop\"";
        if (i < 1024)
            ones += std::string(i ? "," : "") + "1";
    }
    expectSpecError(R"({"kind":"mitigation","repetitions":1073741824,)"
                    R"("tasks":[)" + tasks + "],\"strategies\":[" +
                        strategies + "],\"defect_counts\":[" + ones + "]}",
                    "2147483648 cells");
}

TEST(ScenarioSpec, RunnersRefuseCollidingKeysToo)
{
    // Programmatic configs skip the parser; the runners check the
    // same key list before any task context is built.
    Fig11Config fig11;
    fig11.tasks = {"iris", "iris"};
    EXPECT_THROW(runFig11(fig11), JsonError);
    MitigationConfig mitigation;
    mitigation.tasks = {"iris"};
    mitigation.strategies = {Strategy::NoOp, Strategy::NoOp};
    EXPECT_THROW(runMitigationCampaign(mitigation), JsonError);
    Fig5Config fig5;
    EXPECT_THROW(runFig5(std::vector<Fig5Config>{fig5, fig5}), JsonError);
}

TEST(Fig5Sweep, ExpandCrossProductsOperatorByDefects)
{
    Fig5Sweep sweep;
    sweep.seed = 50;
    sweep.repetitions = 7;
    sweep.threads = 3;
    sweep.operators = {Fig5Operator::Adder4, Fig5Operator::Multiplier4};
    sweep.defectCounts = {1, 5, 20};
    sweep.style = FaStyle::Mirror;

    std::vector<Fig5Config> cells = sweep.expand();
    ASSERT_EQ(cells.size(), 6u);
    // Operator-major order, each with a variant-derived seed.
    EXPECT_EQ(cells[0].op, Fig5Operator::Adder4);
    EXPECT_EQ(cells[0].defects, 1);
    EXPECT_EQ(cells[0].seed, 51u); // 50 + 1 + 1000*0
    EXPECT_EQ(cells[2].defects, 20);
    EXPECT_EQ(cells[2].seed, 70u);
    EXPECT_EQ(cells[3].op, Fig5Operator::Multiplier4);
    EXPECT_EQ(cells[3].seed, 1051u); // 50 + 1 + 1000*1
    for (const Fig5Config &c : cells) {
        EXPECT_EQ(c.repetitions, 7);
        EXPECT_EQ(c.threads, 3);
        EXPECT_EQ(c.style, FaStyle::Mirror);
    }
}

TEST(EnvOverrides, SeedAndThreadsBeatTheSpecOnlyWhenSet)
{
    ScenarioSpec spec = builtinSpec("fig10", false);
    uint64_t spec_seed = spec.fig10.seed;

    unsetenv("DTANN_SEED");
    unsetenv("DTANN_THREADS");
    applyEnvOverrides(spec);
    EXPECT_EQ(spec.runConfig().seed, spec_seed);
    EXPECT_EQ(spec.runConfig().threads, 0);

    setenv("DTANN_SEED", "424242", 1);
    setenv("DTANN_THREADS", "2", 1);
    applyEnvOverrides(spec);
    EXPECT_EQ(spec.runConfig().seed, 424242u);
    EXPECT_EQ(spec.runConfig().threads, 2);
    unsetenv("DTANN_SEED");
    unsetenv("DTANN_THREADS");
}

} // namespace
} // namespace dtann
