#include "service/server/job_queue.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

#include "circuit/lane_plane.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "service/journal.hh"
#include "service/runner.hh"

extern "C" char **environ;

namespace fs = std::filesystem;

namespace dtann {

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

/**
 * Publish @p content at @p path via a same-directory temp file and
 * rename, so the file either exists complete or not at all — the
 * property the "result file is the done marker" protocol needs.
 */
void
writeFileAtomic(const std::string &path, const std::string &content)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot write '" + tmp + "'");
        out << content;
        out.flush();
        if (!out)
            throw std::runtime_error("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot publish '" + path + "'");
}

/**
 * Cells journaled in @p path so far: its non-empty line count minus
 * the header. Reading a file another process is appending to is
 * fine here — lines are flushed whole, and this only feeds progress
 * reporting, never results.
 */
size_t
countJournalCells(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return 0;
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    return lines > 0 ? lines - 1 : 0;
}

/** Drop the per-run context pointers before the journal dies. */
void
clearRunContext(CampaignRunConfig &run)
{
    run.journal = nullptr;
    run.cancel = nullptr;
    run.sharedPool = nullptr;
    run.contextCache = nullptr;
    run.onCellDone = nullptr;
}

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
      case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

JobQueue::JobQueue(const Config &config)
    : cfg(config), pool(config.threads)
{
    if (cfg.runners < 1)
        cfg.runners = 1;
    scanStateDir();
    for (int i = 0; i < cfg.runners; ++i)
        runners.emplace_back([this] { runnerLoop(); });
}

JobQueue::~JobQueue()
{
    shutdown(true);
}

std::string
JobQueue::jobPath(uint64_t id, const char *suffix) const
{
    return cfg.stateDir + "/job-" + std::to_string(id) + suffix;
}

std::string
JobQueue::shardJournalPath(uint64_t id, int shard) const
{
    return jobPath(id, ".jnl.shard-") + std::to_string(shard);
}

void
JobQueue::scanStateDir()
{
    fs::create_directories(cfg.stateDir);
    for (const fs::directory_entry &entry :
         fs::directory_iterator(cfg.stateDir)) {
        std::string name = entry.path().filename().string();
        // Only spec files anchor a job; everything else is derived.
        const std::string prefix = "job-", suffix = ".spec.json";
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string digits = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        uint64_t id = std::stoull(digits);

        auto job = std::make_unique<Job>();
        job->id = id;
        try {
            job->specText = readFile(entry.path().string());
            job->spec = ScenarioSpec::parse(job->specText);
            job->cells = cellCount(job->spec.cellRows());
        } catch (const std::exception &e) {
            // An admitted spec no longer loading means the state dir
            // was damaged; keep the job visible as failed.
            job->state = JobState::Failed;
            job->error = e.what();
            warn("state dir job %llu is unloadable: %s",
                 (unsigned long long)id, e.what());
        }

        if (job->state != JobState::Failed) {
            if (fs::exists(jobPath(id, ".result.json"))) {
                job->state = JobState::Done;
                job->cellsDone = job->cells;
            } else if (fs::exists(jobPath(id, ".cancelled"))) {
                job->state = JobState::Cancelled;
            } else if (fs::exists(jobPath(id, ".error"))) {
                job->state = JobState::Failed;
                try {
                    job->error = readFile(jobPath(id, ".error"));
                } catch (const std::exception &) {
                    job->error = "failed (reason lost)";
                }
                while (!job->error.empty() &&
                       job->error.back() == '\n')
                    job->error.pop_back();
            }
        }

        if (id >= nextId)
            nextId = id + 1;
        jobs.emplace(id, std::move(job));
    }

    // Unfinished jobs resume in id (submission) order; their
    // journals replay every cell that completed before the restart.
    size_t resumed = 0;
    for (auto &kv : jobs)
        if (kv.second->state == JobState::Queued) {
            queued.push_back(kv.second.get());
            ++resumed;
        }
    if (resumed > 0)
        inform("resuming %zu unfinished job(s) from '%s'", resumed,
               cfg.stateDir.c_str());
}

uint64_t
JobQueue::submit(const std::string &specText)
{
    // Admission: a spec that parses is runnable; anything else is
    // rejected here with the parser's message, before any state
    // exists.
    auto job = std::make_unique<Job>();
    job->specText = specText;
    job->spec = ScenarioSpec::parse(specText);
    job->cells = cellCount(job->spec.cellRows());

    std::unique_lock<std::mutex> lock(mu);
    if (stopping)
        throw std::runtime_error("daemon is shutting down");
    uint64_t id = nextId++;
    job->id = id;
    Job *raw = job.get();
    jobs.emplace(id, std::move(job));
    lock.unlock();

    try {
        writeFileAtomic(jobPath(id, ".spec.json"), specText);
    } catch (...) {
        std::lock_guard<std::mutex> relock(mu);
        jobs.erase(id);
        throw;
    }

    lock.lock();
    queued.push_back(raw);
    wake.notify_one();
    return id;
}

std::string
JobQueue::statusJson(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = jobs.find(id);
    if (it == jobs.end())
        return "";
    const Job &job = *it->second;
    std::string out = "{\"id\":" + std::to_string(job.id);
    out += ",\"state\":" +
           jsonString(jobStateName(job.state));
    out += ",\"kind\":" + jsonString(job.spec.kind);
    out += ",\"name\":" + jsonString(job.spec.name);
    out += ",\"cells_done\":" +
           std::to_string(job.cellsDone.load());
    out += ",\"cells_total\":" + std::to_string(job.cells);
    if (job.state == JobState::Failed)
        out += ",\"error\":" + jsonString(job.error);
    out += "}";
    return out;
}

JobQueue::ResultState
JobQueue::result(uint64_t id, std::string &out) const
{
    JobState state;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it == jobs.end())
            return ResultState::Unknown;
        state = it->second->state;
        if (state == JobState::Failed)
            out = it->second->error;
    }
    switch (state) {
      case JobState::Queued:
      case JobState::Running:
        return ResultState::Pending;
      case JobState::Cancelled:
        return ResultState::Cancelled;
      case JobState::Failed:
        return ResultState::Failed;
      case JobState::Done:
        break;
    }
    // The result file is immutable once renamed into place, so it is
    // read outside the lock.
    out = readFile(jobPath(id, ".result.json"));
    return ResultState::Ready;
}

bool
JobQueue::cancel(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = jobs.find(id);
    if (it == jobs.end())
        return false;
    Job &job = *it->second;
    if (job.state == JobState::Queued) {
        for (auto q = queued.begin(); q != queued.end(); ++q)
            if (*q == &job) {
                queued.erase(q);
                break;
            }
        finishJob(job, JobState::Cancelled, "");
    } else if (job.state == JobState::Running) {
        // Cooperative: the runner observes the flag at the next cell
        // boundary and retires the job as cancelled.
        job.cancelFlag.store(true);
    }
    return true;
}

std::string
JobQueue::metricsJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    size_t counts[5] = {0, 0, 0, 0, 0};
    for (const auto &kv : jobs)
        ++counts[static_cast<int>(kv.second->state)];
    std::map<std::string, size_t> backends = backendCountsLocked();
    std::string out = "{\"jobs\":{";
    out += "\"queued\":" +
           std::to_string(counts[(int)JobState::Queued]);
    out += ",\"running\":" +
           std::to_string(counts[(int)JobState::Running]);
    out += ",\"done\":" + std::to_string(counts[(int)JobState::Done]);
    out += ",\"failed\":" +
           std::to_string(counts[(int)JobState::Failed]);
    out += ",\"cancelled\":" +
           std::to_string(counts[(int)JobState::Cancelled]);
    out += "},\"backends\":{";
    bool first_backend = true;
    for (const auto &kv : backends) {
        if (!first_backend)
            out += ",";
        first_backend = false;
        out += jsonString(kv.first) + ":" + std::to_string(kv.second);
    }
    out += "},\"queue_depth\":" + std::to_string(queued.size());
    out += ",\"workers\":" + std::to_string(pool.size());
    out += ",\"runners\":" + std::to_string(runners.size());
    out += ",\"lanes\":{\"width\":" +
           std::to_string(batchLaneWidth()) +
           ",\"isa\":" + jsonString(batchLaneIsa()) + "}";
    out += ",\"shard_workers\":" + std::to_string(cfg.shardWorkers);
    std::string shards;
    for (const auto &kv : jobs) {
        const Job &job = *kv.second;
        if (job.state != JobState::Running || job.shardCells.empty())
            continue;
        for (size_t k = 0; k < job.shardCells.size(); ++k) {
            if (!shards.empty())
                shards += ",";
            shards += "{\"job\":" + std::to_string(job.id) +
                      ",\"shard\":" + std::to_string(k) +
                      ",\"cells_done\":" +
                      std::to_string(job.shardCells[k]) + "}";
        }
    }
    out += ",\"shards\":[" + shards + "]";
    out += ",\"cache\":" + sharedCache.statsJson();
    out += ",\"sim\":" + simTotals.toJson();
    out += "}";
    return out;
}

std::map<std::string, size_t>
JobQueue::backendCountsLocked() const
{
    std::map<std::string, size_t> counts;
    counts[backendName(BackendKind::Spatial)] = 0;
    counts[backendName(BackendKind::Systolic)] = 0;
    for (const auto &kv : jobs) {
        std::string label = kv.second->spec.backendLabel();
        ++counts[label.empty() ? "none" : label];
    }
    return counts;
}

std::string
JobQueue::metricsPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu);
    size_t counts[5] = {0, 0, 0, 0, 0};
    for (const auto &kv : jobs)
        ++counts[static_cast<int>(kv.second->state)];

    std::string out;
    auto header = [&](const char *name, const char *type,
                      const char *help) {
        out += std::string("# HELP ") + name + " " + help + "\n";
        out += std::string("# TYPE ") + name + " " + type + "\n";
    };

    header("dtann_jobs", "gauge", "Jobs known to the queue by state.");
    for (JobState s : {JobState::Queued, JobState::Running,
                       JobState::Done, JobState::Failed,
                       JobState::Cancelled})
        out += std::string("dtann_jobs{state=\"") + jobStateName(s) +
               "\"} " + std::to_string(counts[(int)s]) + "\n";

    header("dtann_jobs_backend", "gauge",
           "Jobs by resolved hardware backend.");
    for (const auto &kv : backendCountsLocked())
        out += "dtann_jobs_backend{backend=\"" + kv.first + "\"} " +
               std::to_string(kv.second) + "\n";

    header("dtann_queue_depth", "gauge", "Jobs waiting for a runner.");
    out += "dtann_queue_depth " + std::to_string(queued.size()) + "\n";
    header("dtann_workers", "gauge", "Shared worker pool width.");
    out += "dtann_workers " + std::to_string(pool.size()) + "\n";
    header("dtann_runners", "gauge", "Concurrent job runner threads.");
    out += "dtann_runners " + std::to_string(runners.size()) + "\n";
    header("dtann_lane_width", "gauge",
           "Negotiated batch SIMD lane width.");
    out += "dtann_lane_width " + std::to_string(batchLaneWidth()) +
           "\n";
    header("dtann_shard_workers", "gauge",
           "Shard worker processes per job (0 = in-process).");
    out += "dtann_shard_workers " + std::to_string(cfg.shardWorkers) +
           "\n";

    header("dtann_shard_cells_done", "gauge",
           "Cells journaled per worker of running sharded jobs.");
    for (const auto &kv : jobs) {
        const Job &job = *kv.second;
        if (job.state != JobState::Running || job.shardCells.empty())
            continue;
        for (size_t k = 0; k < job.shardCells.size(); ++k)
            out += "dtann_shard_cells_done{job=\"" +
                   std::to_string(job.id) + "\",shard=\"" +
                   std::to_string(k) + "\"} " +
                   std::to_string(job.shardCells[k]) + "\n";
    }

    ServerCache::Stats cache = sharedCache.stats();
    header("dtann_cache_hits_total", "counter",
           "Shared-cache hits by entry kind.");
    out += "dtann_cache_hits_total{cache=\"task\"} " +
           std::to_string(cache.taskHits) + "\n";
    out += "dtann_cache_hits_total{cache=\"netlist\"} " +
           std::to_string(cache.netlistHits) + "\n";
    header("dtann_cache_misses_total", "counter",
           "Shared-cache misses (builds) by entry kind.");
    out += "dtann_cache_misses_total{cache=\"task\"} " +
           std::to_string(cache.taskMisses) + "\n";
    out += "dtann_cache_misses_total{cache=\"netlist\"} " +
           std::to_string(cache.netlistMisses) + "\n";

    header("dtann_sim_vectors_total", "counter",
           "Faulty-operator input vectors simulated, by path.");
    out += "dtann_sim_vectors_total{path=\"scalar\"} " +
           std::to_string(simTotals.scalarVectors) + "\n";
    out += "dtann_sim_vectors_total{path=\"batch\"} " +
           std::to_string(simTotals.batchVectors) + "\n";
    header("dtann_sim_batch_sweeps_total", "counter",
           "Wide-lane batch sweeps executed.");
    out += "dtann_sim_batch_sweeps_total " +
           std::to_string(simTotals.batchSweeps) + "\n";
    header("dtann_sim_batch_lane_slots_total", "counter",
           "Lane slots provisioned across batch sweeps.");
    out += "dtann_sim_batch_lane_slots_total " +
           std::to_string(simTotals.batchLaneSlots) + "\n";
    header("dtann_sim_gate_evals_total", "counter",
           "Scalar gate evaluations executed.");
    out += "dtann_sim_gate_evals_total " +
           std::to_string(simTotals.gateEvals) + "\n";
    header("dtann_sim_lane_occupancy", "gauge",
           "Mean occupied lanes per batch sweep, in [0, 1].");
    out += "dtann_sim_lane_occupancy " +
           jsonNumber(simTotals.laneOccupancy()) + "\n";
    return out;
}

void
JobQueue::finishJob(Job &job, JobState state, const std::string &error)
{
    job.state = state;
    job.error = error;
    try {
        if (state == JobState::Cancelled)
            writeFileAtomic(jobPath(job.id, ".cancelled"), "");
        else if (state == JobState::Failed)
            writeFileAtomic(jobPath(job.id, ".error"), error + "\n");
    } catch (const std::exception &e) {
        // In-memory state stays authoritative for this lifetime; a
        // restart will re-run the job, which is safe (journaled).
        warn("cannot persist job %llu outcome: %s",
             (unsigned long long)job.id, e.what());
    }
}

void
JobQueue::runShardWorkers(Job &job)
{
    const int n = cfg.shardWorkers;
    const std::string specPath = jobPath(job.id, ".spec.json");
    {
        std::lock_guard<std::mutex> lock(mu);
        job.shardCells.assign(static_cast<size_t>(n), 0);
    }

    struct Worker
    {
        pid_t pid = -1;
        int attempts = 0;
        bool done = false;
    };
    std::vector<Worker> crew(static_cast<size_t>(n));

    auto spawn = [&](int k) {
        std::string jnl = shardJournalPath(job.id, k);
        std::string shardArg =
            std::to_string(k) + "/" + std::to_string(n);
        std::string logPath = jnl + ".log";
        const char *argv[] = {cfg.workerCmd.c_str(),
                              specPath.c_str(),
                              "--journal",
                              jnl.c_str(),
                              "--shard",
                              shardArg.c_str(),
                              "--progress",
                              "0",
                              nullptr};
        // Worker chatter goes to a per-shard log beside its
        // journal, kept for post-mortems until the job succeeds.
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(
            &fa, 1, logPath.c_str(),
            O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        pid_t pid = -1;
        int rc = posix_spawn(&pid, cfg.workerCmd.c_str(), &fa,
                             nullptr,
                             const_cast<char *const *>(argv),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot spawn shard worker '" +
                                     cfg.workerCmd +
                                     "': " + std::strerror(rc));
        crew[static_cast<size_t>(k)].pid = pid;
        ++crew[static_cast<size_t>(k)].attempts;
    };

    auto killCrew = [&] {
        for (Worker &w : crew)
            if (w.pid > 0)
                ::kill(w.pid, SIGTERM);
        for (Worker &w : crew)
            if (w.pid > 0) {
                int st = 0;
                ::waitpid(w.pid, &st, 0);
                w.pid = -1;
            }
    };

    inform("job %llu: sharding %zu cell(s) across %d worker "
           "processes",
           (unsigned long long)job.id, job.cells, n);
    for (int k = 0; k < n; ++k)
        spawn(k);

    constexpr int kMaxAttempts = 5;
    size_t running = crew.size();
    try {
        while (running > 0) {
            if (job.cancelFlag.load())
                throw CampaignCancelled();
            for (int k = 0; k < n; ++k) {
                Worker &w = crew[static_cast<size_t>(k)];
                if (w.pid <= 0)
                    continue;
                int st = 0;
                pid_t got = ::waitpid(w.pid, &st, WNOHANG);
                if (got == 0)
                    continue;
                w.pid = -1;
                if (got > 0 && WIFEXITED(st) &&
                    WEXITSTATUS(st) == 0) {
                    w.done = true;
                    --running;
                    continue;
                }
                // The shard journal holds everything the worker
                // finished; the respawn resumes behind it, so a
                // crash costs at most the cell being computed.
                if (w.attempts >= kMaxAttempts)
                    throw std::runtime_error(
                        "shard worker " + std::to_string(k) + "/" +
                        std::to_string(n) + " failed " +
                        std::to_string(w.attempts) +
                        " time(s); giving up (see " +
                        shardJournalPath(job.id, k) + ".log)");
                warn("job %llu: shard worker %d/%d died; "
                     "respawning (attempt %d)",
                     (unsigned long long)job.id, k, n,
                     w.attempts + 1);
                spawn(k);
            }
            // Progress: a shard journal's line count IS its cell
            // count, so polling the files is enough — no pipe
            // protocol with the workers needed.
            size_t total = 0;
            {
                std::lock_guard<std::mutex> lock(mu);
                for (int k = 0; k < n; ++k) {
                    size_t idx = static_cast<size_t>(k);
                    if (!crew[idx].done || job.shardCells[idx] == 0)
                        job.shardCells[idx] = countJournalCells(
                            shardJournalPath(job.id, k));
                    total += job.shardCells[idx];
                }
            }
            job.cellsDone.store(total);
            if (running > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
        }
    } catch (...) {
        killCrew();
        throw;
    }
}

void
JobQueue::runJob(Job &job)
{
    CampaignRunConfig &run = job.spec.runConfig();
    bool sharded = cfg.shardWorkers >= 2 && !cfg.workerCmd.empty();
    try {
        if (sharded)
            runShardWorkers(job);

        ResultJournal journal(jobPath(job.id, ".jnl"),
                              job.spec.journalEcho());
        if (sharded) {
            // Index-order merge: absorb every shard's cells, then
            // replay the campaign against the merged journal. The
            // replay recomputes any cell a dying worker failed to
            // journal and accumulates results in global cell-index
            // order, so the envelope published below is
            // byte-identical to a single-process run.
            size_t merged = 0;
            for (int k = 0; k < cfg.shardWorkers; ++k)
                merged += journal.absorb(shardJournalPath(job.id, k));
            inform("job %llu: absorbed %zu cell(s) from %d shard "
                   "journal(s); replaying for the merged result",
                   (unsigned long long)job.id, merged,
                   cfg.shardWorkers);
        }
        run.journal = &journal;
        run.cancel = &job.cancelFlag;
        run.sharedPool = &pool;
        run.contextCache = &sharedCache;
        Job *self = &job;
        run.onCellDone = [self](const CellReport &r) {
            self->cellsDone.store(r.cellsDone);
        };

        ScenarioResult res = runScenario(job.spec);
        clearRunContext(run);
        writeFileAtomic(jobPath(job.id, ".result.json"),
                        res.json + "\n");
        if (sharded)
            for (int k = 0; k < cfg.shardWorkers; ++k) {
                std::error_code ec;
                fs::remove(shardJournalPath(job.id, k), ec);
                fs::remove(shardJournalPath(job.id, k) + ".log", ec);
            }
        std::lock_guard<std::mutex> lock(mu);
        simTotals.merge(res.sim);
        finishJob(job, JobState::Done, "");
    } catch (const CampaignCancelled &) {
        clearRunContext(run);
        std::lock_guard<std::mutex> lock(mu);
        finishJob(job, JobState::Cancelled, "");
    } catch (const std::exception &e) {
        clearRunContext(run);
        std::lock_guard<std::mutex> lock(mu);
        finishJob(job, JobState::Failed, e.what());
    }
}

void
JobQueue::runnerLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        wake.wait(lock,
                  [this] { return stopping || !queued.empty(); });
        if (queued.empty()) {
            if (stopping)
                return;
            continue;
        }
        Job *job = queued.front();
        queued.pop_front();
        job->state = JobState::Running;
        lock.unlock();
        runJob(*job);
        lock.lock();
    }
}

void
JobQueue::shutdown(bool cancelRunning)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
        if (cancelRunning) {
            while (!queued.empty()) {
                Job *job = queued.front();
                queued.pop_front();
                finishJob(*job, JobState::Cancelled, "");
            }
            for (auto &kv : jobs)
                if (kv.second->state == JobState::Running)
                    kv.second->cancelFlag.store(true);
        }
        wake.notify_all();
    }
    for (std::thread &t : runners)
        if (t.joinable())
            t.join();
}

} // namespace dtann
