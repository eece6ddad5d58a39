/**
 * @file
 * The daemon's campaign job queue.
 *
 * A job is one admitted scenario spec. Submission parses the spec
 * and counts its cell rows (ScenarioSpec::cellRows()), so a
 * malformed or oversized spec is rejected with the parser's message
 * before anything is queued, then persists the
 * submitted bytes under the state directory and enqueues the job.
 * A small crew of runner threads executes queued jobs in submission
 * order; every job runs with
 *
 *  - the queue's one shared ThreadPool (concurrent jobs fair-share
 *    workers instead of oversubscribing the host),
 *  - the shared ServerCache (task contexts and netlists built once
 *    across jobs), and
 *  - a per-job ResultJournal, so a daemon killed mid-job resumes
 *    the job bit-identically on restart.
 *
 * State directory layout (all names carry the numeric job id):
 *
 *   job-<id>.spec.json    exact submitted spec bytes (admission copy)
 *   job-<id>.jnl          the job's results journal
 *   job-<id>.result.json  campaign envelope; written atomically via
 *                         rename, so its existence IS the done marker
 *   job-<id>.cancelled    marker: job was cancelled
 *   job-<id>.error        marker + message: job failed
 *
 * On construction the queue scans the directory: finished jobs are
 * reloaded for status/result queries, unfinished ones are re-queued
 * (their journals replay completed cells), and new ids continue
 * after the highest found. Determinism makes this safe: a resumed
 * job's result is byte-identical to an uninterrupted run.
 *
 * Multi-process sharding (Config::shardWorkers >= 2, dtannd
 * --workers): each job is split across N `dtann_campaign --shard
 * k/N` worker processes, each journaling its own slice of the
 * placement-independent cell list to job-<id>.jnl.shard-<k>. The
 * runner babysits the crew — a worker that dies (crash, OOM kill)
 * is respawned and resumes from its shard journal — then absorbs
 * the shard journals into the canonical job journal and replays the
 * campaign in-process, so the published result is byte-identical to
 * a single-process run. Shard journals are deleted on success.
 */

#ifndef DTANN_SERVICE_SERVER_JOB_QUEUE_HH
#define DTANN_SERVICE_SERVER_JOB_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/sim_counters.hh"
#include "common/thread_pool.hh"
#include "service/server/shared_cache.hh"
#include "service/spec.hh"

namespace dtann {

enum class JobState { Queued, Running, Done, Failed, Cancelled };

/** The lowercase wire name of @p s ("queued", "running", ...). */
const char *jobStateName(JobState s);

class JobQueue
{
  public:
    struct Config
    {
        std::string stateDir; ///< persistence root (created if absent)
        /** Shared worker pool width; 0 = hardware concurrency. */
        int threads = 0;
        /** Jobs executing concurrently (queue runner threads). */
        int runners = 2;
        /**
         * Shard every job across this many worker processes
         * (>= 2 enables multi-process mode; 0/1 = in-process).
         * Needs workerCmd.
         */
        int shardWorkers = 0;
        /** dtann_campaign binary spawned as the shard worker. */
        std::string workerCmd;
    };

    /** Create/scan the state dir and start the runner crew. */
    explicit JobQueue(const Config &config);

    /** Equivalent to shutdown(true): cancel, drain, join. */
    ~JobQueue();

    /**
     * Admit one spec document. @p specText is parsed and its cells
     * counted;
     * the exact bytes are persisted for restart and audit.
     *
     * @return the new job's id
     * @throws JsonError when the spec does not parse
     * @throws std::runtime_error after shutdown() or on I/O failure
     */
    uint64_t submit(const std::string &specText);

    /**
     * Status document for @p id:
     * {"id":...,"state":...,"kind":...,"name":...,
     *  "cells_done":...,"cells_total":...[,"error":...]}
     * Empty string when the id is unknown.
     */
    std::string statusJson(uint64_t id) const;

    enum class ResultState { Unknown, Pending, Ready, Failed, Cancelled };

    /**
     * Fetch the result of @p id. Ready fills @p out with the
     * campaign envelope (newline-terminated, byte-identical to the
     * offline driver's export); Failed fills it with the error
     * message.
     */
    ResultState result(uint64_t id, std::string &out) const;

    /**
     * Cancel @p id: a queued job is retired immediately, a running
     * job is asked to stop at the next cell boundary (journaled
     * cells survive for a later resume). Finished jobs are
     * unaffected. @return false when the id is unknown.
     */
    bool cancel(uint64_t id);

    /**
     * Queue/cache/simulation metrics object for GET /metrics:
     * {"jobs":{per-state counts},"backends":{per-hardware-target
     *  job counts},"queue_depth":...,"workers":...,"runners":...,
     *  "lanes":{negotiated batch lane width + ISA},
     *  "shard_workers":...,"shards":[per-worker shard progress of
     *  running sharded jobs],"cache":...,"sim":...}
     */
    std::string metricsJson() const;

    /**
     * The same metrics in Prometheus text exposition format
     * (GET /metrics?format=prometheus): one dtann_-prefixed gauge
     * or counter per scalar, with job states, hardware backends,
     * shard progress, and cache shards as labels.
     */
    std::string metricsPrometheus() const;

    /**
     * Stop admitting jobs and wind down. @p cancelRunning false
     * drains: running and queued jobs finish first. True cancels
     * queued and running jobs at the next cell boundary. Joins the
     * runner crew; idempotent.
     */
    void shutdown(bool cancelRunning);

  private:
    struct Job
    {
        uint64_t id = 0;
        std::string specText; ///< exact submitted bytes
        ScenarioSpec spec;
        size_t cells = 0; ///< cellCount() of the spec's rows
        JobState state = JobState::Queued;
        std::atomic<bool> cancelFlag{false};
        std::atomic<size_t> cellsDone{0};
        std::string error; ///< failure message (state Failed)
        /** Per-worker journaled-cell counts while the job runs
         *  sharded (guarded by the queue mutex; empty otherwise). */
        std::vector<size_t> shardCells;
    };

    std::string jobPath(uint64_t id, const char *suffix) const;
    /** Path of worker @p shard's journal for job @p id. */
    std::string shardJournalPath(uint64_t id, int shard) const;
    void scanStateDir();
    void runnerLoop();
    void runJob(Job &job);
    /**
     * Spawn and babysit the shard worker crew for @p job: one
     * `dtann_campaign --shard k/N` process per shard, each
     * journaling to shardJournalPath(). Dead workers are respawned
     * (resuming from their journal) up to a retry cap. Throws
     * CampaignCancelled when the job's cancel flag interrupts the
     * crew, std::runtime_error when a shard keeps failing.
     */
    void runShardWorkers(Job &job);
    /** Finish @p job: set state, write its marker file. */
    void finishJob(Job &job, JobState state, const std::string &error);
    /** Jobs per resolved hardware target. Every known backend is
     *  present (possibly 0); fig5 jobs count under "none". Caller
     *  holds mu. */
    std::map<std::string, size_t> backendCountsLocked() const;

    Config cfg;
    ThreadPool pool;
    ServerCache sharedCache;

    mutable std::mutex mu;
    std::condition_variable wake;
    std::map<uint64_t, std::unique_ptr<Job>> jobs;
    std::deque<Job *> queued;
    uint64_t nextId = 1;
    bool stopping = false;
    SimCounters simTotals; ///< across jobs finished this lifetime

    std::vector<std::thread> runners;
};

} // namespace dtann

#endif // DTANN_SERVICE_SERVER_JOB_QUEUE_HH
