/**
 * @file
 * JobQueue tests: admission (bad specs rejected with the parser's
 * message before any state exists), the job lifecycle
 * (queued -> running -> done/failed/cancelled), restart recovery
 * from the state directory, and cross-job sharing through the
 * ServerCache — including the contract that daemon-produced results
 * are byte-identical to a direct runScenario() of the same spec.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "common/json.hh"
#include "service/runner.hh"
#include "service/server/job_queue.hh"

namespace dtann {
namespace {

namespace fs = std::filesystem;

/** Fresh state directory per test, removed on destruction. */
struct StateDir
{
    explicit StateDir(const std::string &stem)
        : path(testing::TempDir() + "dtann_" + stem + "_" +
               std::to_string(::getpid()))
    {
        fs::remove_all(path);
    }
    ~StateDir() { fs::remove_all(path); }

    /** An in-process queue over this directory. */
    JobQueue::Config
    queueConfig(int threads, int runners) const
    {
        JobQueue::Config c;
        c.stateDir = path;
        c.threads = threads;
        c.runners = runners;
        return c;
    }

    std::string path;
};

/** A sub-second fig5 spec with @p reps cells. */
ScenarioSpec
tinyFig5(const std::string &name, int reps = 4)
{
    ScenarioSpec spec;
    spec.kind = "fig5";
    spec.name = name;
    spec.fig5.repetitions = reps;
    spec.fig5.seed = 7;
    spec.fig5.defectCounts = {2};
    return spec;
}

/** A seconds-scale fig10 spec (training work worth caching). */
ScenarioSpec
tinyFig10(const std::string &name)
{
    ScenarioSpec spec;
    spec.kind = "fig10";
    spec.name = name;
    spec.fig10.tasks = {"iris"};
    spec.fig10.defectCounts = {0, 3};
    spec.fig10.repetitions = 2;
    spec.fig10.folds = 2;
    spec.fig10.rows = 90;
    spec.fig10.epochScale = 0.1;
    spec.fig10.retrainScale = 0.2;
    spec.fig10.seed = 11;
    return spec;
}

/** Poll @p queue until @p id reaches a terminal state. */
std::string
awaitTerminal(JobQueue &queue, uint64_t id)
{
    for (int i = 0; i < 600; ++i) {
        std::string status = queue.statusJson(id);
        if (status.find("\"state\":\"queued\"") == std::string::npos &&
            status.find("\"state\":\"running\"") == std::string::npos)
            return status;
        ::usleep(100 * 1000);
    }
    return queue.statusJson(id);
}

TEST(JobQueue, SubmitRunsToDoneBitIdenticalToDirectRun)
{
    StateDir dir("jq_done");
    ScenarioSpec spec = tinyFig5("t");
    JobQueue queue(dir.queueConfig(2, 1));
    uint64_t id = queue.submit(spec.toJson());

    std::string status = awaitTerminal(queue, id);
    EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"cells_done\":4"), std::string::npos);
    EXPECT_NE(status.find("\"cells_total\":4"), std::string::npos);

    std::string out;
    ASSERT_EQ(queue.result(id, out), JobQueue::ResultState::Ready);
    EXPECT_EQ(out, runScenario(spec).json + "\n");
}

TEST(JobQueue, RejectsBadSpecsBeforeQueueing)
{
    StateDir dir("jq_bad");
    JobQueue queue(dir.queueConfig(1, 1));
    EXPECT_THROW(queue.submit("not json"), JsonError);
    EXPECT_THROW(queue.submit("{\"kind\":\"nope\"}"), JsonError);
    // Parsing validates task names without uciTask()'s fatal().
    EXPECT_THROW(
        queue.submit("{\"kind\":\"fig10\",\"tasks\":[\"bogus\"]}"),
        JsonError);
    // Nothing was admitted: no job files, no visible jobs.
    EXPECT_EQ(queue.statusJson(1), "");
    std::string out;
    EXPECT_EQ(queue.result(1, out), JobQueue::ResultState::Unknown);
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir.path)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 0u);
}

TEST(JobQueue, CancelQueuedAndRunning)
{
    StateDir dir("jq_cancel");
    // One runner so the second submission has to wait its turn.
    JobQueue queue(dir.queueConfig(1, 1));
    uint64_t running =
        queue.submit(tinyFig5("long", /*reps=*/500).toJson());
    uint64_t waiting = queue.submit(tinyFig5("waiting").toJson());

    EXPECT_TRUE(queue.cancel(waiting));
    EXPECT_TRUE(queue.cancel(running));
    EXPECT_FALSE(queue.cancel(999));

    EXPECT_NE(awaitTerminal(queue, running)
                  .find("\"state\":\"cancelled\""),
              std::string::npos);
    EXPECT_NE(awaitTerminal(queue, waiting)
                  .find("\"state\":\"cancelled\""),
              std::string::npos);
    std::string out;
    EXPECT_EQ(queue.result(running, out),
              JobQueue::ResultState::Cancelled);
}

TEST(JobQueue, RestartServesFinishedJobsAndContinuesIds)
{
    StateDir dir("jq_restart");
    ScenarioSpec spec = tinyFig5("t");
    std::string first_result;
    {
        JobQueue queue(dir.queueConfig(2, 1));
        uint64_t id = queue.submit(spec.toJson());
        awaitTerminal(queue, id);
        ASSERT_EQ(queue.result(id, first_result),
                  JobQueue::ResultState::Ready);
    }

    // A new queue over the same state dir serves the finished job
    // and numbers new jobs after it.
    JobQueue queue(dir.queueConfig(2, 1));
    std::string status = queue.statusJson(1);
    EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos)
        << status;
    std::string out;
    ASSERT_EQ(queue.result(1, out), JobQueue::ResultState::Ready);
    EXPECT_EQ(out, first_result);

    uint64_t next = queue.submit(spec.toJson());
    EXPECT_EQ(next, 2u);
    awaitTerminal(queue, next);
    ASSERT_EQ(queue.result(next, out), JobQueue::ResultState::Ready);
    EXPECT_EQ(out, first_result) << "same spec, same bytes";
}

TEST(JobQueue, ConcurrentIdenticalJobsShareTheCache)
{
    StateDir dir("jq_cache");
    // Two runners: both fig10 jobs run concurrently and want the
    // same task context (same seed/rows/epochs -> same cache key);
    // one builds, the other must block on the shared future.
    JobQueue queue(dir.queueConfig(2, 2));
    ScenarioSpec a = tinyFig10("a"), b = tinyFig10("b");
    uint64_t ja = queue.submit(a.toJson());
    uint64_t jb = queue.submit(b.toJson());
    EXPECT_NE(awaitTerminal(queue, ja).find("\"state\":\"done\""),
              std::string::npos);
    EXPECT_NE(awaitTerminal(queue, jb).find("\"state\":\"done\""),
              std::string::npos);

    JsonValue metrics = jsonParse(queue.metricsJson());
    const JsonValue &task = metrics.at("cache").at("task");
    EXPECT_GE(task.at("hits").asInt(), 1);
    EXPECT_EQ(task.at("entries").asInt(), 1);

    // Sharing must not change results: both jobs, and a direct
    // uncached run, agree byte for byte (modulo the spec name echo).
    std::string ra, rb;
    ASSERT_EQ(queue.result(ja, ra), JobQueue::ResultState::Ready);
    ASSERT_EQ(queue.result(jb, rb), JobQueue::ResultState::Ready);
    EXPECT_EQ(ra, runScenario(a).json + "\n");
    EXPECT_EQ(rb, runScenario(b).json + "\n");
}

TEST(JobQueue, MetricsCountsStates)
{
    StateDir dir("jq_metrics");
    JobQueue queue(dir.queueConfig(1, 1));
    uint64_t id = queue.submit(tinyFig5("t").toJson());
    awaitTerminal(queue, id);

    JsonValue metrics = jsonParse(queue.metricsJson());
    EXPECT_EQ(metrics.at("jobs").at("done").asInt(), 1);
    EXPECT_EQ(metrics.at("queue_depth").asInt(), 0);
    EXPECT_EQ(metrics.at("workers").asInt(), 1);
    EXPECT_EQ(metrics.at("runners").asInt(), 1);
    // The fig5 job simulated real vectors; totals must show it.
    EXPECT_GT(metrics.at("sim").at("gate_evals").asInt(), 0);
}

TEST(JobQueue, ShutdownDrainFinishesQueuedWork)
{
    StateDir dir("jq_drain");
    ScenarioSpec spec = tinyFig5("t");
    JobQueue queue(dir.queueConfig(1, 1));
    uint64_t id = queue.submit(spec.toJson());
    queue.shutdown(/*cancelRunning=*/false);

    std::string status = queue.statusJson(id);
    EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos)
        << status;
    EXPECT_THROW(queue.submit(spec.toJson()), std::runtime_error);
}

} // namespace
} // namespace dtann
