/**
 * @file
 * Kill-and-resume bit-identity: a campaign resumed from a
 * truncated journal must produce byte-for-byte the same export as
 * an uninterrupted run — the tentpole contract of the service
 * layer. Also covers the corrupt-payload path (recompute, don't
 * crash), full-journal replays that do no simulation work, and the
 * agreement of the admission plan with what a run journals and
 * reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/json.hh"
#include "service/journal.hh"
#include "service/runner.hh"

namespace dtann {
namespace {

std::string
tempPath(const std::string &stem)
{
    return testing::TempDir() + "dtann_" + stem + "_" +
        std::to_string(::getpid()) + ".jnl";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path,
           const std::vector<std::string> &lines)
{
    std::ofstream out(path);
    for (const std::string &l : lines)
        out << l << "\n";
}

/** Run @p spec against a journal at @p path. */
std::string
runWithJournal(ScenarioSpec spec, const std::string &path,
               size_t *resumed = nullptr)
{
    ResultJournal journal(path, spec.journalEcho());
    if (resumed != nullptr)
        *resumed = journal.resumedCells();
    spec.runConfig().journal = &journal;
    return runScenario(spec).json;
}

/** A seconds-scale fig10 campaign with several journalable cells. */
ScenarioSpec
tinyFig10()
{
    ScenarioSpec spec;
    spec.kind = spec.name = "fig10";
    spec.fig10.tasks = {"iris"};
    spec.fig10.defectCounts = {0, 3};
    spec.fig10.repetitions = 3;
    spec.fig10.folds = 2;
    spec.fig10.rows = 90;
    spec.fig10.epochScale = 0.1;
    spec.fig10.retrainScale = 0.2;
    spec.fig10.seed = 11;
    spec.fig10.threads = 2;
    return spec;
}

ScenarioSpec
tinyFig5()
{
    ScenarioSpec spec;
    spec.kind = spec.name = "fig5";
    spec.fig5.operators = {Fig5Operator::Adder4,
                           Fig5Operator::Multiplier4};
    spec.fig5.defectCounts = {2};
    spec.fig5.repetitions = 4;
    spec.fig5.seed = 5;
    spec.fig5.threads = 2;
    return spec;
}

ScenarioSpec
tinyFig11()
{
    ScenarioSpec spec;
    spec.kind = spec.name = "fig11";
    spec.fig11.tasks = {"iris"};
    spec.fig11.repetitions = 4;
    spec.fig11.folds = 2;
    spec.fig11.rows = 90;
    spec.fig11.epochScale = 0.1;
    spec.fig11.retrainScale = 0.2;
    spec.fig11.seed = 17;
    spec.fig11.threads = 2;
    return spec;
}

ScenarioSpec
tinyMitigation()
{
    ScenarioSpec spec;
    spec.kind = spec.name = "mitigation";
    spec.mitigation.tasks = {"iris"};
    spec.mitigation.defectCounts = {0, 4};
    spec.mitigation.strategies = {Strategy::RetrainOnly,
                                  Strategy::RemapToSpares};
    spec.mitigation.repetitions = 2;
    spec.mitigation.folds = 2;
    spec.mitigation.rows = 90;
    spec.mitigation.epochScale = 0.1;
    spec.mitigation.retrainScale = 0.2;
    spec.mitigation.bist.vectorsPerUnit = 4;
    spec.mitigation.seed = 13;
    spec.mitigation.threads = 2;
    return spec;
}

/**
 * A spec factory as a test parameter. Wrapped so gtest prints the
 * scenario kind rather than the function pointer, whose address
 * changes from run to run and would make the test names unstable.
 */
struct Scenario
{
    ScenarioSpec (*make)();
};

void
PrintTo(const Scenario &scenario, std::ostream *os)
{
    *os << scenario.make().kind;
}

class ResumeBitIdentity : public testing::TestWithParam<Scenario>
{
};

TEST_P(ResumeBitIdentity, TruncatedJournalResumesExactly)
{
    ScenarioSpec spec = GetParam().make();
    std::string path = tempPath("resume_" + spec.kind);
    std::remove(path.c_str());

    // Ground truth: no journal at all.
    std::string expected = runScenario(spec).json;

    // First run journals every cell and matches the journal-less run.
    EXPECT_EQ(runWithJournal(spec, path), expected);

    std::vector<std::string> lines = readLines(path);
    ASSERT_GT(lines.size(), 3u) << "want cells to truncate";

    // Kill simulation: drop the tail, keep header + a cell prefix.
    std::vector<std::string> truncated(
        lines.begin(), lines.begin() + (lines.size() / 2 + 1));
    writeLines(path, truncated);

    size_t resumed = 0;
    EXPECT_EQ(runWithJournal(spec, path, &resumed), expected);
    EXPECT_EQ(resumed, truncated.size() - 1);

    // A complete journal replays everything, still bit-identically.
    size_t all = 0;
    EXPECT_EQ(runWithJournal(spec, path, &all), expected);
    EXPECT_EQ(all, lines.size() - 1);
    std::remove(path.c_str());
}

TEST_P(ResumeBitIdentity, ShardedWorkersMergeBitIdentically)
{
    // The multi-process campaign contract: two workers each compute
    // the cells with index % 2 == shard into their own journals;
    // absorbing both into one journal and replaying unsharded must
    // reproduce the single-process export byte for byte.
    ScenarioSpec spec = GetParam().make();
    std::string expected = runScenario(spec).json;

    std::string shard0 = tempPath("shard0_" + spec.kind);
    std::string shard1 = tempPath("shard1_" + spec.kind);
    std::string merged = tempPath("sharded_" + spec.kind);
    std::remove(shard0.c_str());
    std::remove(shard1.c_str());
    std::remove(merged.c_str());

    size_t cells[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
        ScenarioSpec worker = spec;
        worker.runConfig().shardCount = 2;
        worker.runConfig().shardIndex = k;
        // Shard coordinates are execution context, not data: the
        // echo matches the unsharded spec, so the parent can absorb.
        EXPECT_EQ(worker.journalEcho(), spec.journalEcho());
        ResultJournal journal(k == 0 ? shard0 : shard1,
                              worker.journalEcho());
        worker.runConfig().journal = &journal;
        runScenario(worker); // partial export, ignored by design
        cells[k] = readLines(k == 0 ? shard0 : shard1).size() - 1;
    }
    EXPECT_GT(cells[0], 0u);
    EXPECT_GT(cells[1], 0u);

    ResultJournal journal(merged, spec.journalEcho());
    EXPECT_EQ(journal.absorb(shard0), cells[0]);
    EXPECT_EQ(journal.absorb(shard1), cells[1]);
    ScenarioSpec replay = spec;
    replay.runConfig().journal = &journal;
    EXPECT_EQ(runScenario(replay).json, expected);

    std::remove(shard0.c_str());
    std::remove(shard1.c_str());
    std::remove(merged.c_str());
}

TEST_P(ResumeBitIdentity, DeadShardCellsAreRecomputedOnReplay)
{
    // A worker killed mid-job leaves a short (or missing) shard
    // journal; the parent's unsharded replay recomputes whatever is
    // absent and still exports byte-identically.
    ScenarioSpec spec = GetParam().make();
    std::string expected = runScenario(spec).json;

    std::string shard0 = tempPath("deadshard_" + spec.kind);
    std::string merged = tempPath("deadmerge_" + spec.kind);
    std::remove(shard0.c_str());
    std::remove(merged.c_str());

    {
        ScenarioSpec worker = spec;
        worker.runConfig().shardCount = 2;
        worker.runConfig().shardIndex = 0;
        ResultJournal journal(shard0, worker.journalEcho());
        worker.runConfig().journal = &journal;
        runScenario(worker);
    }
    // Shard 1 "died" before journaling anything at all.
    ResultJournal journal(merged, spec.journalEcho());
    EXPECT_GT(journal.absorb(shard0), 0u);
    ScenarioSpec replay = spec;
    replay.runConfig().journal = &journal;
    EXPECT_EQ(runScenario(replay).json, expected);

    std::remove(shard0.c_str());
    std::remove(merged.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, ResumeBitIdentity,
    testing::Values(Scenario{&tinyFig10}, Scenario{&tinyFig5},
                    Scenario{&tinyFig11}, Scenario{&tinyMitigation}),
    [](const testing::TestParamInfo<Scenario> &info) {
        return info.param.make().kind;
    });

TEST(Resume, CorruptPayloadRecomputesBitIdentically)
{
    ScenarioSpec spec = tinyFig10();
    std::string path = tempPath("corrupt");
    std::remove(path.c_str());

    std::string expected = runWithJournal(spec, path);

    // Mangle one journaled payload into undecodable JSON. The
    // resumed run must warn, recompute that cell, and still match.
    std::vector<std::string> lines = readLines(path);
    ASSERT_GT(lines.size(), 2u);
    lines[2] = lines[2].substr(0, lines[2].find("\"payload\"")) +
        "\"payload\":\"{\\\"not\\\": \\\"a cell\\\"}\"}";
    writeLines(path, lines);

    EXPECT_EQ(runWithJournal(spec, path), expected);
    std::remove(path.c_str());
}

TEST(Resume, FieldStrippedPayloadRecomputesBitIdentically)
{
    // Journal-compat regression: a journal written by an older build
    // can lack per-cell fields this build requires (and carry extras
    // it has never heard of). Replay must tolerate both — recompute
    // the incomplete cell instead of aborting or default-filling,
    // ignore the unknown field — and still export byte-identically.
    ScenarioSpec spec = tinyMitigation();
    std::string path = tempPath("stripped");
    std::remove(path.c_str());

    std::string expected = runWithJournal(spec, path);

    std::vector<std::string> lines = readLines(path);
    ASSERT_GT(lines.size(), 4u);
    // Strip the "coverage" field from the first cell payload (the
    // payload is an escaped JSON string, so the field text carries
    // backslash-quotes), simulating a pre-coverage build's journal.
    bool stripped = false, extended = false;
    for (std::string &line : lines) {
        size_t start = line.find(",\\\"coverage\\\":");
        if (!stripped && start != std::string::npos) {
            size_t end = line.find(",\\\"diagnosed\\\"");
            ASSERT_NE(end, std::string::npos);
            line.erase(start, end - start);
            stripped = true;
            continue;
        }
        // Add an unknown field to a different cell: a *newer* build's
        // journal replays fine as long as the known fields are there.
        size_t sim = line.find(",\\\"sim\\\"");
        if (stripped && !extended && sim != std::string::npos) {
            line.insert(sim, ",\\\"from_the_future\\\":42");
            extended = true;
        }
    }
    ASSERT_TRUE(stripped) << "no mitigation payload carried coverage";
    ASSERT_TRUE(extended);
    writeLines(path, lines);

    EXPECT_EQ(runWithJournal(spec, path), expected);
    std::remove(path.c_str());
}

TEST(Resume, ThreadCountInvariantWithJournal)
{
    // Journaled replay must not depend on scheduling: resume with a
    // different thread count and still match.
    ScenarioSpec spec = tinyFig10();
    std::string path = tempPath("threads");
    std::remove(path.c_str());

    std::string expected = runScenario(spec).json;
    runWithJournal(spec, path);

    std::vector<std::string> lines = readLines(path);
    writeLines(path, {lines.begin(), lines.begin() + 2});

    // The journal echo normalizes the thread count away, so the
    // same journal serves any execution width.
    ScenarioSpec wide = spec;
    wide.fig10.threads = 4;
    EXPECT_EQ(runWithJournal(wide, path), expected);
    std::remove(path.c_str());
}

TEST(CellPlan, OneProgressCountPerScenario)
{
    // Fig 5 variants run as one campaign and a multi-task Fig 10 as
    // one cell list: progress counts 1 .. plan.cells exactly once.
    ScenarioSpec twoTasks = tinyFig10();
    twoTasks.fig10.tasks = {"iris", "wine"};
    for (ScenarioSpec spec : {tinyFig5(), twoTasks}) {
        size_t cells = cellCount(spec.cellRows());
        std::vector<CellReport> seen;
        // The engine serializes the callback; no lock needed.
        spec.runConfig().onCellDone = [&](const CellReport &r) {
            seen.push_back(r);
        };
        runScenario(spec);
        ASSERT_EQ(seen.size(), cells) << spec.kind;
        for (size_t i = 0; i < seen.size(); ++i) {
            EXPECT_EQ(seen[i].cellsDone, i + 1) << spec.kind;
            EXPECT_EQ(seen[i].cellsTotal, cells) << spec.kind;
        }
    }
}

TEST(CellPlan, JournaledKeysAreCellRowsInOrder)
{
    // The rows are the run's key list: at one thread the journal
    // holds exactly the spec's rows expanded in order, and the run
    // reports their cell count.
    for (auto make : {&tinyFig5, &tinyFig10, &tinyFig11, &tinyMitigation}) {
        ScenarioSpec spec = make();
        spec.runConfig().threads = 1;
        std::string path = tempPath("plan_" + spec.kind);
        std::remove(path.c_str());
        ScenarioResult result;
        {
            ResultJournal journal(path, spec.journalEcho());
            spec.runConfig().journal = &journal;
            result = runScenario(spec);
        }
        std::vector<CellRow> rows = spec.cellRows();
        EXPECT_EQ(result.cells, cellCount(rows)) << spec.kind;

        std::vector<std::string> expected;
        for (const CellRow &row : rows)
            for (size_t rep = 0; rep < row.reps; ++rep)
                expected.push_back(spec.kind + "/" + row.task + "/" +
                                   row.variant + "/" +
                                   std::to_string(rep));
        std::vector<std::string> lines = readLines(path);
        std::vector<std::string> journaled;
        for (size_t i = 1; i < lines.size(); ++i)
            journaled.push_back(
                jsonParse(lines[i]).at("cell").asString());
        EXPECT_EQ(journaled, expected) << spec.kind;
        EXPECT_EQ(journaled.size(), cellCount(rows)) << spec.kind;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace dtann
