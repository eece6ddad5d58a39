/**
 * @file
 * Backend-era journal compatibility: journals and exports written
 * before the spec carried a `backend` field must keep working —
 * the stored echo parses as an implicit spatial spec, resumes
 * without recomputation, and the refactored SpatialBackend
 * reproduces the pre-refactor results bit for bit (fresh, resumed,
 * and sharded). The prerefactor_fig10 fixtures under
 * tests/fixtures/ were captured from the last pre-backend build;
 * prerefactor_mitigation_spatial from the last build with separate
 * spare, remap and replicate output models.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "service/journal.hh"
#include "service/runner.hh"

#include "../common/strip_sim_telemetry.hh"

namespace dtann {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(DTANN_FIXTURE_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

std::string
tempCopy(const std::string &source, const std::string &stem)
{
    std::string path = testing::TempDir() + "dtann_" + stem + "_" +
        std::to_string(::getpid()) + ".jnl";
    std::ofstream out(path, std::ios::trunc);
    out << readFile(source) << "\n";
    return path;
}

ScenarioSpec
fixtureSpec()
{
    return ScenarioSpec::parse(
        readFile(fixturePath("prerefactor_fig10.json")));
}

/**
 * The envelope tail from the top-level seed on: everything except
 * the config echo (which now carries the backend field the
 * pre-refactor build did not have) — seed, sim counters, results.
 */
std::string
envelopeTail(const std::string &envelope)
{
    size_t pos = envelope.find("},\"seed\":");
    EXPECT_NE(pos, std::string::npos) << envelope.substr(0, 120);
    return pos == std::string::npos ? envelope : envelope.substr(pos);
}

TEST(BackendResume, CurrentEchoNamesTheBackendExplicitly)
{
    ScenarioSpec spec = fixtureSpec();
    EXPECT_NE(spec.journalEcho().find("\"backend\":\"spatial\""),
              std::string::npos)
        << spec.journalEcho();
}

TEST(BackendResume, PreBackendJournalHeaderIsCompatible)
{
    // The stored spec echo predates the backend field; the journal
    // must recognize it as the same (implicitly spatial) campaign
    // and resume every cell instead of rejecting the header.
    ScenarioSpec spec = fixtureSpec();
    std::string path =
        tempCopy(fixturePath("prerefactor_fig10.jnl"), "hdr");
    ResultJournal journal(path, spec.journalEcho());
    EXPECT_EQ(journal.resumedCells(), 3u);
    std::remove(path.c_str());
}

TEST(BackendResume, PreBackendJournalReplaysBitIdentically)
{
    // Replaying the old journal does no simulation work and exports
    // the pre-refactor seed/sim/results bytes exactly.
    ScenarioSpec spec = fixtureSpec();
    std::string path =
        tempCopy(fixturePath("prerefactor_fig10.jnl"), "replay");
    ResultJournal journal(path, spec.journalEcho());
    ASSERT_EQ(journal.resumedCells(), 3u);
    spec.runConfig().journal = &journal;
    ScenarioResult result = runScenario(spec);
    EXPECT_EQ(
        envelopeTail(result.json),
        envelopeTail(readFile(fixturePath("prerefactor_fig10.result.json"))));
    std::remove(path.c_str());
}

TEST(BackendResume, FreshSpatialRunMatchesPreRefactorExport)
{
    // The refactor's ground-truth acceptance check: recomputing the
    // campaign from scratch on the extracted SpatialBackend yields
    // the pre-refactor export bit for bit.
    ScenarioSpec spec = fixtureSpec();
    EXPECT_EQ(
        envelopeTail(runScenario(spec).json),
        envelopeTail(readFile(fixturePath("prerefactor_fig10.result.json"))));
}

TEST(BackendResume, FreshSpatialMitigationRunMatchesPreRefactorExport)
{
    // All six strategies on a small spatial array, with defect
    // counts high enough that remap and replicate recruit spare
    // rows: the export, sim telemetry aside, must not move by a byte.
    ScenarioSpec spec = ScenarioSpec::parse(
        readFile(fixturePath("prerefactor_mitigation_spatial.json")));
    EXPECT_EQ(stripSimTelemetry(runScenario(spec).json),
              stripSimTelemetry(readFile(fixturePath(
                  "prerefactor_mitigation_spatial.result.json"))));
}

TEST(BackendResume, ShardedRunMatchesPreRefactorExport)
{
    // Shard the same campaign across two workers, absorb their
    // journals, and replay: still byte-identical to the
    // pre-refactor export.
    ScenarioSpec spec = fixtureSpec();
    std::string shard0 = testing::TempDir() + "dtann_prb_shard0_" +
        std::to_string(::getpid()) + ".jnl";
    std::string shard1 = testing::TempDir() + "dtann_prb_shard1_" +
        std::to_string(::getpid()) + ".jnl";
    std::string merged = testing::TempDir() + "dtann_prb_merged_" +
        std::to_string(::getpid()) + ".jnl";
    std::remove(shard0.c_str());
    std::remove(shard1.c_str());
    std::remove(merged.c_str());

    for (int k = 0; k < 2; ++k) {
        ScenarioSpec worker = fixtureSpec();
        worker.runConfig().shardCount = 2;
        worker.runConfig().shardIndex = k;
        ResultJournal journal(k == 0 ? shard0 : shard1,
                              worker.journalEcho());
        worker.runConfig().journal = &journal;
        runScenario(worker);
    }
    ResultJournal journal(merged, spec.journalEcho());
    EXPECT_GT(journal.absorb(shard0), 0u);
    EXPECT_GT(journal.absorb(shard1), 0u);
    spec.runConfig().journal = &journal;
    EXPECT_EQ(
        envelopeTail(runScenario(spec).json),
        envelopeTail(readFile(fixturePath("prerefactor_fig10.result.json"))));

    std::remove(shard0.c_str());
    std::remove(shard1.c_str());
    std::remove(merged.c_str());
}

} // namespace
} // namespace dtann
