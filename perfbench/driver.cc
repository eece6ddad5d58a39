/**
 * @file
 * perfbench_driver: the measuring half of the campaign benchmark
 * (perfbench/run.py generates the specs, repeats runs and checks
 * results). It uses only dtann's public entry points.
 *
 *   perfbench_driver info
 *       Build type, lane width/ISA and hardware threads.
 *
 *   perfbench_driver hostref
 *       Seconds the host-speed reference kernel takes now (ref_s,
 *       see hostref.hh).
 *
 *   perfbench_driver campaign --spec F --envelope OUT
 *                             [--trace DIR --replay N --replay-seed S]
 *       One offline campaign through runScenario() in this (fresh)
 *       process. A benchmark-owned SharedContextCache times the task
 *       context builds (setup). With --trace, a CellCache records one
 *       span per cell, and afterwards N seeded cells are replayed
 *       through the public functions of each layer with a span
 *       around every call; spans go to DIR.
 *
 *   perfbench_driver daemon --dtannd BIN --jobs F --threads T
 *                           --clients C --seconds S --out DIR
 *                           [--trace DIR]
 *       Closed-loop sessions against fresh dtannd children (fresh
 *       state dir each), while one more session at the mean pace
 *       ends within S seconds (at least one session). Each of C
 *       clients submits its next job only after fetching the
 *       previous result. Each session carries the mean of the
 *       reference times taken right before and after it (ref_s).
 *       Afterwards every job is recomputed offline and the fetched
 *       bytes must match.
 *
 * Every subcommand prints one JSON object as its last stdout line
 * and exits 0; a run with failed or mismatching jobs exits 3, and
 * a usage or runtime error exits 1 or 2.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "circuit/lane_plane.hh"
#include "common/json.hh"
#include "hostref.hh"
#include "mitigate/bist.hh"
#include "mitigate/mitigator.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"
#include "service/client.hh"
#include "service/journal.hh"
#include "service/runner.hh"
#include "trace.hh"
#include "transistor/reconstruct.hh"
#include "transistor/switch_network.hh"

#ifndef DTANN_BUILD_TYPE
#define DTANN_BUILD_TYPE "unknown"
#endif

using namespace dtann;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------
// Small helpers

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << text))
        throw std::runtime_error("cannot write '" + path + "'");
}

/** Peak resident set (VmHWM) of @p pid ("self" or a number), MB. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Linear-interpolated quantile @p q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Flat JSON object builder for the result lines. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &k, double v)
    {
        return raw(k, jsonNumber(v));
    }
    JsonObject &str(const std::string &k, const std::string &v)
    {
        return raw(k, jsonString(v));
    }
    JsonObject &raw(const std::string &k, const std::string &json)
    {
        body += (body.empty() ? "" : ",") + jsonString(k) + ":" + json;
        return *this;
    }
    std::string json() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Named samples; each metric reports the median of its samples. */
class Samples
{
  public:
    void add(const std::string &name, double v) { values[name].push_back(v); }
    void addTo(JsonObject &o) const
    {
        for (const auto &[name, v] : values)
            o.num(name, quantile(v, 0.5));
    }

  private:
    std::map<std::string, std::vector<double>> values;
};

/** --key value argument list. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0 || i + 1 >= argc)
                throw std::invalid_argument("bad argument '" + k + "'");
            kv[k.substr(2)] = argv[++i];
        }
    }
    bool has(const std::string &k) const { return kv.count(k) != 0; }
    std::string get(const std::string &k) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            throw std::invalid_argument("missing --" + k);
        return it->second;
    }
    long num(const std::string &k) const
    {
        return std::strtol(get(k).c_str(), nullptr, 10);
    }

  private:
    std::map<std::string, std::string> kv;
};

// ---------------------------------------------------------------
// Hooks installed through the public run-config seams

/**
 * Benchmark-owned SharedContextCache: builds every key once, like
 * the daemon's cache, and records each task-context build interval
 * so setup time (first build start to last build end) is measured
 * from outside the library. Keeps the contexts for the replay.
 */
class SetupCache final : public SharedContextCache
{
  public:
    explicit SetupCache(Tracer *tracer_) : tracer(tracer_) {}

    std::shared_ptr<const TaskContext>
    task(const std::string &key,
         const std::function<TaskContext()> &build) override
    {
        return once<TaskContext>(tasks, key, [&] {
            Clock::time_point t0 = Clock::now();
            Span span(tracer, "setup.task_context", key);
            auto ctx = std::make_shared<const TaskContext>(build());
            span.stop();
            recordBuild(t0, Clock::now());
            return ctx;
        });
    }

    std::shared_ptr<const Netlist>
    netlist(const std::string &key,
            const std::function<Netlist()> &build) override
    {
        return once<Netlist>(netlists, key, [&] {
            return std::make_shared<const Netlist>(build());
        });
    }

    /** A context built during the campaign (null when absent). */
    std::shared_ptr<const TaskContext> cached(const std::string &key)
    {
        std::shared_future<std::shared_ptr<const TaskContext>> f;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = tasks.find(key);
            if (it == tasks.end())
                return nullptr;
            f = it->second;
        }
        return f.get();
    }

    /** First build start to last build end, seconds (0 = none). */
    double setupSeconds() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return builds == 0 ? 0.0 : secondsBetween(firstStart, lastEnd);
    }

  private:
    template <typename T, typename Map, typename Build>
    std::shared_ptr<const T> once(Map &map, const std::string &key,
                                  const Build &build)
    {
        std::promise<std::shared_ptr<const T>> p;
        std::shared_future<std::shared_ptr<const T>> f;
        bool building = false;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = map.find(key);
            if (it == map.end()) {
                f = p.get_future().share();
                map.emplace(key, f);
                building = true;
            } else {
                f = it->second;
            }
        }
        if (building) {
            try {
                p.set_value(build());
            } catch (...) {
                p.set_exception(std::current_exception());
            }
        }
        return f.get();
    }

    void recordBuild(Clock::time_point start, Clock::time_point end)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (builds == 0 || start < firstStart)
            firstStart = start;
        if (builds == 0 || end > lastEnd)
            lastEnd = end;
        ++builds;
    }

    Tracer *tracer;
    mutable std::mutex mu;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const TaskContext>>>
        tasks; // guarded by mu
    std::map<std::string, std::shared_future<std::shared_ptr<const Netlist>>>
        netlists; // guarded by mu
    size_t builds = 0;                         // guarded by mu
    Clock::time_point firstStart, lastEnd;     // guarded by mu
};

/**
 * Benchmark-owned CellCache: never replays, records one span per
 * computed cell (lookup -> store) under the campaign span.
 */
class CellSpans final : public CellCache
{
  public:
    CellSpans(Tracer *tracer_, uint64_t parent_)
        : tracer(tracer_), parent(parent_)
    {
    }

    bool lookup(const CellKey &key, std::string &) override
    {
        Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        open[key.toString()] = now;
        return false;
    }

    void store(const CellKey &key, const std::string &) override
    {
        Clock::time_point end = Clock::now();
        std::string k = key.toString();
        Clock::time_point start;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = open.find(k);
            if (it == open.end())
                return;
            start = it->second;
            open.erase(it);
            if (cellMs.empty() || start < first)
                first = start;
            if (cellMs.empty() || end > last)
                last = end;
            cellMs.push_back(secondsBetween(start, end) * 1e3);
        }
        tracer->add("engine.cell", k, parent, start, end);
    }

    /** engine.* metrics for a campaign run on @p threads workers. */
    void addTo(JsonObject &o, int threads) const
    {
        std::lock_guard<std::mutex> lock(mu);
        double busy = 0.0;
        for (double ms : cellMs)
            busy += ms / 1e3;
        double phase = cellMs.empty() ? 0.0 : secondsBetween(first, last);
        o.num("engine.cell_ms_p50", quantile(cellMs, 0.5))
            .num("engine.cell_ms_p90", quantile(cellMs, 0.9))
            .num("engine.cell_ms_max", quantile(cellMs, 1.0))
            .num("engine.parallel_efficiency",
                 phase > 0 ? busy / (threads * phase) : 0.0);
    }

  private:
    Tracer *tracer;
    uint64_t parent;
    mutable std::mutex mu;
    std::map<std::string, Clock::time_point> open; // guarded by mu
    std::vector<double> cellMs;                    // guarded by mu
    Clock::time_point first, last;                 // guarded by mu
};

// ---------------------------------------------------------------
// Traced replay of sampled cells through each layer

constexpr uint64_t kReplayStream = 0x7265706c6179ULL; // "replay"
constexpr int kMitigationSamples = 2; // cells that race strategies
constexpr int kWeightLoads = 8;
constexpr int kReconstructPerSite = 32;
constexpr size_t kOpVectors = 2048;
constexpr int kBatchableDraws = 64;
constexpr int kJournalStores = 200;

/** Mean per-row time (us) of forward() over @p ds. */
double
forwardRowUs(Tracer *tracer, const char *name, const std::string &cell,
             HardwareBackend &hw, const Dataset &ds)
{
    Span span(tracer, name, cell);
    for (const auto &row : ds.rows)
        hw.forward(row);
    return span.stop() * 1e6 / static_cast<double>(ds.size());
}

void
replayCells(const ScenarioSpec &spec, SetupCache &cache, Tracer *tracer,
            uint64_t seed, int samples, const std::string &dir,
            Samples &m)
{
    std::vector<int> counts;
    SitePool pool = SitePool::inputAndHidden();
    BistConfig bist;
    if (spec.kind == "fig10") {
        counts = spec.fig10.defectCounts;
    } else if (spec.kind == "mitigation") {
        counts = spec.mitigation.defectCounts;
        pool = spec.mitigation.injectPool;
        bist = spec.mitigation.bist;
    } else {
        throw std::invalid_argument("replay needs a fig10 or mitigation "
                                    "spec, not '" + spec.kind + "'");
    }
    const CampaignConfig &cfg = *spec.campaignConfig();
    counts.erase(std::remove(counts.begin(), counts.end(), 0),
                 counts.end());
    if (counts.empty())
        counts = {1};

    std::vector<UciTaskSpec> tasks = selectTasks(cfg.tasks);
    std::vector<bool> baselineDone(tasks.size(), false);
    auto opNl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, cfg.array.faStyle));
    Rng pick = Rng::substream(seed, {kReplayStream});

    for (int s = 0; s < samples; ++s) {
        size_t t = pick.nextUint(tasks.size());
        int defects = counts[pick.nextUint(counts.size())];
        auto ctx = cache.cached(taskContextKey(cfg, tasks[t], t));
        if (!ctx)
            throw std::runtime_error("replay: no cached context for " +
                                     tasks[t].name);
        const Dataset &ds = ctx->ds;
        const std::string cell = "replay/" + tasks[t].name + "/d" +
            std::to_string(defects) + "/" + std::to_string(s);
        Span cellSpan(tracer, "replay.cell", cell);
        Rng rng = Rng::substream(
            seed, {kReplayStream, static_cast<uint64_t>(s) + 1});

        if (!baselineDone[t]) {
            baselineDone[t] = true;
            Rng data_rng = rng;
            Span synth(tracer, "data.synth", cell);
            makeSyntheticTask(ctx->spec, data_rng, cfg.rows);
            m.add("data.synth_ms", synth.stop() * 1e3);
            auto clean = makeBackend(cfg.backend, cfg.array, ctx->logical);
            Span train(tracer, "ann.baseline_train", cell);
            Trainer(ctx->hyper).train(*clean, ds, rng);
            m.add("ann.baseline_train_s", train.stop());
        }

        auto clean = makeBackend(cfg.backend, cfg.array, ctx->logical);
        clean->setWeights(ctx->baseline);
        m.add("core.forward_row_us.clean",
              forwardRowUs(tracer, "core.forward_row.clean", cell, *clean,
                           ds));

        std::unique_ptr<HardwareBackend> hw;
        {
            Span span(tracer, "core.make_backend", cell);
            hw = makeBackend(cfg.backend, cfg.array, ctx->logical);
            m.add("core.make_backend_us", span.stop() * 1e6);
        }
        {
            DefectInjector injector(*hw, pool, cfg.weighting);
            Span span(tracer, "core.inject", cell);
            injector.inject(defects, rng);
            m.add("core.inject_ms", span.stop() * 1e3);
        }

        // Reconstruction of fresh defects on gates of the faulty
        // units' netlists (drawn first, so only reconstruct() is
        // inside the span).
        std::vector<std::pair<GateKind, Defect>> draws;
        for (const UnitSite &site : hw->faultySites()) {
            const Netlist &nl = hw->unitNetlist(site.kind);
            for (int k = 0; k < kReconstructPerSite; ++k) {
                GateKind kind = nl.gate(rng.nextUint(nl.numGates())).kind;
                if (hasSchematic(kind))
                    draws.push_back({kind, randomDefect(kind, rng)});
            }
        }
        if (!draws.empty()) {
            Span span(tracer, "transistor.reconstruct", cell);
            for (const auto &[kind, d] : draws)
                reconstruct(kind, {d});
            m.add("transistor.reconstruct_us",
                  span.stop() * 1e6 / static_cast<double>(draws.size()));
        }

        {
            Span span(tracer, "core.set_weights", cell);
            for (int k = 0; k < kWeightLoads; ++k)
                hw->setWeights(ctx->baseline);
            m.add("core.set_weights_us", span.stop() * 1e6 / kWeightLoads);
        }
        m.add("core.forward_row_us.faulty",
              forwardRowUs(tracer, "core.forward_row.faulty", cell, *hw,
                           ds));
        {
            Span span(tracer, "core.forward_batch", cell);
            hw->forwardBatch(ds.rows);
            m.add("core.forward_batch_rows_per_s",
                  static_cast<double>(ds.size()) / span.stop());
        }
        {
            Span span(tracer, "ann.eval", cell);
            evalAccuracy(*hw, ds);
            m.add("ann.eval_rows_per_s",
                  static_cast<double>(ds.size()) / span.stop());
        }
        {
            Hyper h = retrainHyper(ctx->hyper, cfg.retrainScale);
            Span span(tracer, "ann.retrain", cell);
            Trainer(h).train(*hw, ds, rng, &ctx->baseline);
            m.add("ann.retrain_ms_per_epoch", span.stop() * 1e3 / h.epochs);
        }

        {
            // A faulty 16x16 multiplier, the workload's most frequent
            // unit, with a fresh single defect. applyLanes is timed
            // on a draw redrawn until it is batchable (as in
            // bench_sim_throughput), so the metric measures the lane
            // path rather than the share of stateful draws.
            auto draw = [&] {
                return std::make_unique<OperatorSim>(
                    opNl, injectTransistorDefects(*opNl, 1, rng),
                    cleanMultiplierSigned(16));
            };
            std::unique_ptr<OperatorSim> sim = draw();
            std::vector<uint64_t> in(kOpVectors), out(kOpVectors);
            for (uint64_t &v : in)
                v = rng.nextUint(1ull << 32);
            Span apply(tracer, "rtl.opsim_apply", cell);
            for (size_t k = 0; k < kOpVectors; ++k)
                out[k] = sim->apply(in[k]);
            m.add("rtl.opsim_apply_ns", apply.stop() * 1e9 / kOpVectors);
            for (int k = 0; k < kBatchableDraws && !sim->batched(); ++k)
                sim = draw();
            Span lanes(tracer, "rtl.opsim_lanes", cell);
            sim->applyLanes(in.data(), out.data(), kOpVectors);
            m.add("rtl.opsim_lanes_vectors_per_s", kOpVectors / lanes.stop());
        }

        {
            Span span(tracer, "mitigate.bist", cell);
            runBist(*hw, bist, rng);
            m.add("mitigate.bist_ms", span.stop() * 1e3);
        }
        if (s < kMitigationSamples) {
            MitigationSetup setup{cfg.array, ctx->logical, ds,
                                  retrainHyper(ctx->hyper, cfg.retrainScale),
                                  ctx->baseline, cfg.folds, bist,
                                  cfg.backend};
            auto inject = [&](HardwareBackend &target) {
                Rng inject_rng = Rng::substream(
                    seed, {kReplayStream, static_cast<uint64_t>(s) + 1, 1});
                DefectInjector(target, pool, cfg.weighting)
                    .inject(defects, inject_rng);
            };
            for (Strategy st :
                 {Strategy::NoOp, Strategy::RetrainOnly,
                  Strategy::BypassFaulty, Strategy::ClampActivations}) {
                if (!strategySupported(st, cfg.backend))
                    continue;
                Rng st_rng = Rng::substream(
                    seed, {kReplayStream, static_cast<uint64_t>(s) + 1, 2});
                std::string name = strategyName(st);
                Span span(tracer, "mitigate.run." + name, cell);
                makeMitigator(st)->run(setup, inject, st_rng);
                m.add("mitigate.run_ms." + name, span.stop() * 1e3);
            }
        }
    }

    // Journal appends on a real file, with a campaign-shaped payload.
    std::string path = dir + "/replay.jnl";
    fs::remove(path);
    {
        ResultJournal journal(path, "{\"kind\":\"perfbench-replay\"}");
        std::string payload =
            "{\"accuracy\":0.87654321,\"sim\":" + SimCounters().toJson() +
            "}";
        Span span(tracer, "service.journal_store", "");
        for (int k = 0; k < kJournalStores; ++k)
            journal.store(CellKey{"fig10", "replay", "v1:d9",
                                  static_cast<uint64_t>(k)},
                          payload);
        m.add("service.journal_store_us",
              span.stop() * 1e6 / kJournalStores);
    }
    fs::remove(path);
}

// ---------------------------------------------------------------
// Subcommands

int
cmdInfo()
{
    std::printf("%s\n",
                JsonObject()
                    .str("build_type", DTANN_BUILD_TYPE)
                    .num("lanes", static_cast<double>(batchLaneWidth()))
                    .str("lane_isa", batchLaneIsa())
                    .num("hardware_threads",
                         std::thread::hardware_concurrency())
                    .json()
                    .c_str());
    return 0;
}

int
cmdHostRef()
{
    std::printf("%s\n",
                JsonObject().num("ref_s", hostRefSeconds()).json().c_str());
    return 0;
}

int
cmdCampaign(const Args &args)
{
    ScenarioSpec spec = ScenarioSpec::parse(readFile(args.get("spec")));
    const bool traced = args.has("trace");
    const std::string traceDir = traced ? args.get("trace") : "";
    std::unique_ptr<Tracer> tracer =
        traced ? std::make_unique<Tracer>() : nullptr;

    SetupCache cache(tracer.get());
    CampaignRunConfig &run = spec.runConfig();
    run.contextCache = &cache;

    Span campaign(tracer.get(), "campaign.run", spec.name);
    std::unique_ptr<CellSpans> cells;
    if (traced) {
        cells = std::make_unique<CellSpans>(tracer.get(), campaign.id());
        run.journal = cells.get();
    }
    ScenarioResult res = runScenario(spec);
    double wall = campaign.stop();
    writeFile(args.get("envelope"), res.json + "\n");

    int threads = run.threads > 0
        ? run.threads
        : static_cast<int>(std::thread::hardware_concurrency());
    JsonObject o;
    o.num("wall_s", wall)
        .num("setup_s", cache.setupSeconds())
        .num("cells", static_cast<double>(res.cells))
        .num("threads", threads)
        .raw("sim", res.sim.toJson());
    if (traced) {
        cells->addTo(o, threads);
        Samples m;
        replayCells(spec, cache, tracer.get(),
                    static_cast<uint64_t>(args.num("replay-seed")),
                    static_cast<int>(args.num("replay")), traceDir, m);
        m.addTo(o);
        tracer->write(traceDir + "/campaign.spans.jsonl",
                      traceDir + "/campaign.layers.json");
    }
    o.num("peak_rss_mb", peakRssMb("self"));
    std::printf("%s\n", o.json().c_str());
    return 0;
}

/**
 * One dtannd child with its own state dir. The destructor tears the
 * child down (SIGKILL if still running, then reaps it) and removes
 * the state dir and port file, on success and failure paths alike.
 */
class DaemonChild
{
  public:
    DaemonChild(const std::string &bin, const std::string &stateDir_,
                const std::string &portFile_, const std::string &log,
                int threads)
        : stateDir(stateDir_), portFile(portFile_)
    {
        fs::remove_all(stateDir);
        fs::remove(portFile);
        std::vector<std::string> argv = {
            bin,         "--state-dir", stateDir,
            "--listen",  "127.0.0.1:0", "--threads",
            std::to_string(threads), "--runners", "2",
            "--port-file", portFile};
        pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            std::vector<char *> cargv;
            for (std::string &a : argv)
                cargv.push_back(a.data());
            cargv.push_back(nullptr);
            ::execv(bin.c_str(), cargv.data());
            ::_exit(127);
        }
    }

    ~DaemonChild()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
        std::error_code ec;
        fs::remove_all(stateDir, ec);
        fs::remove(portFile, ec);
    }

    DaemonChild(const DaemonChild &) = delete;
    DaemonChild &operator=(const DaemonChild &) = delete;

    /** Wait for the published address; throws if the child dies. */
    std::string waitReady(double timeoutS)
    {
        Clock::time_point t0 = Clock::now();
        while (secondsBetween(t0, Clock::now()) < timeoutS) {
            std::ifstream in(portFile);
            std::string addr;
            if (in && std::getline(in, addr) && !addr.empty())
                return addr;
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error("dtannd exited during start-up");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        throw std::runtime_error("dtannd did not publish its address");
    }

    double peakRss() const { return peakRssMb(std::to_string(pid)); }

    /** Graceful shutdown; the destructor kills on timeout. */
    void shutdown(const CampaignClient &client)
    {
        client.shutdown();
        for (int i = 0; i < 2000 && pid > 0; ++i) {
            if (::waitpid(pid, nullptr, WNOHANG) == pid)
                pid = -1;
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

  private:
    std::string stateDir, portFile;
    pid_t pid = -1;
};

struct JobResult
{
    bool ok = false;
    std::string error;
    std::string body;
    double ms = 0, submitMs = 0, queueWaitMs = 0, fetchMs = 0;
    double cells = 0;
};

/** One closed-loop client job: submit, poll, fetch. */
JobResult
runJob(const CampaignClient &client, const std::string &text,
       Tracer *tracer, uint64_t parent, const std::string &cell)
{
    JobResult r;
    Span job(tracer, "daemon.job", cell, parent);
    Clock::time_point t0 = Clock::now();
    try {
        uint64_t id;
        {
            Span span(tracer, "server.submit", cell);
            id = client.submit(text);
            r.submitMs = span.stop() * 1e3;
        }
        bool started = false;
        std::string state;
        Span wait(tracer, "server.queue_wait", cell);
        for (;;) {
            JsonValue st = jsonParse(client.status(id));
            state = st.at("state").asString();
            r.cells = st.at("cells_total").asNumber();
            if (!started && state != "queued") {
                started = true;
                r.queueWaitMs = wait.stop() * 1e3;
            }
            if (state != "queued" && state != "running")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
        }
        if (state != "done")
            throw std::runtime_error("job ended " + state);
        Span fetch(tracer, "server.result_fetch", cell);
        r.body = client.result(id);
        r.fetchMs = fetch.stop() * 1e3;
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.ms = secondsBetween(t0, Clock::now()) * 1e3;
    return r;
}

int
cmdDaemon(const Args &args)
{
    const std::string out = args.get("out");
    const int threads = static_cast<int>(args.num("threads"));
    const int clients = static_cast<int>(args.num("clients"));
    const double seconds = static_cast<double>(args.num("seconds"));
    const bool traced = args.has("trace");
    std::unique_ptr<Tracer> tracer =
        traced ? std::make_unique<Tracer>() : nullptr;

    std::vector<std::string> jobs;
    {
        std::istringstream in(readFile(args.get("jobs")));
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                jobs.push_back(line);
    }
    if (jobs.empty() || clients < 1 || threads < 1)
        throw std::invalid_argument("daemon: need jobs, clients, threads");

    std::vector<std::vector<JobResult>> results; // [session][job]
    std::string sessions = "[";
    double hits = 0, misses = 0;
    Clock::time_point start = Clock::now();
    double refBefore = hostRefSeconds();
    for (int k = 0;; ++k) {
        const std::string tag = std::to_string(k);
        Span session(tracer.get(), "daemon.session", "session/" + tag);
        Clock::time_point t0 = Clock::now();
        DaemonChild child(args.get("dtannd"), out + "/state-" + tag,
                          out + "/port-" + tag, out + "/dtannd-" + tag + ".log",
                          threads);
        double setup;
        std::string addr;
        {
            Span launch(tracer.get(), "daemon.launch", "session/" + tag);
            addr = child.waitReady(60.0);
            setup = launch.stop();
        }
        CampaignClient client(addr);

        std::vector<JobResult> jr(jobs.size());
        std::vector<std::thread> crew;
        Clock::time_point last = t0;
        std::mutex lastMu;
        for (int c = 0; c < clients; ++c)
            crew.emplace_back([&, c] {
                for (size_t j = static_cast<size_t>(c); j < jobs.size();
                     j += static_cast<size_t>(clients)) {
                    jr[j] = runJob(client, jobs[j], tracer.get(),
                                   session.id(), "session/" + tag + "/job/" +
                                       std::to_string(j));
                    std::lock_guard<std::mutex> lock(lastMu);
                    last = std::max(last, Clock::now());
                }
            });
        for (std::thread &t : crew)
            t.join();
        double wall = secondsBetween(t0, last);

        JsonValue metrics = jsonParse(client.metrics());
        const JsonValue &task = metrics.at("cache").at("task");
        hits += task.at("hits").asNumber();
        misses += task.at("misses").asNumber();
        double rss = child.peakRss();
        child.shutdown(client);
        session.stop();
        double refAfter = hostRefSeconds();

        double cells = 0;
        for (const JobResult &r : jr)
            cells += r.cells;
        sessions += std::string(k ? "," : "") +
            JsonObject()
                .num("wall_s", wall)
                .num("setup_s", setup)
                .num("cells", cells)
                .num("jobs", static_cast<double>(jobs.size()))
                .num("peak_rss_mb", rss)
                .num("ref_s", (refBefore + refAfter) / 2)
                .json();
        refBefore = refAfter;
        results.push_back(std::move(jr));
        // Stop unless one more session at the mean pace ends in time.
        if (secondsBetween(start, Clock::now()) * (k + 2) / (k + 1) >
            seconds)
            break;
    }
    sessions += "]";

    // Byte-identity gate: every fetched envelope must equal the
    // offline runScenario() export of the same spec.
    size_t failed = 0;
    std::string errors = "[";
    std::map<std::string, std::string> offline; // spec text -> envelope
    for (size_t j = 0; j < jobs.size(); ++j) {
        auto [it, fresh] = offline.try_emplace(jobs[j]);
        if (fresh) {
            try {
                ScenarioSpec spec = ScenarioSpec::parse(jobs[j]);
                spec.runConfig().threads = threads;
                it->second = runScenario(spec).json + "\n";
            } catch (const std::exception &) {
                // The daemon must have refused it too; counted below.
            }
        }
        const std::string &expected = it->second;
        if (!expected.empty())
            writeFile(out + "/job-" + std::to_string(j) + ".json", expected);
        for (size_t k = 0; k < results.size(); ++k) {
            const JobResult &r = results[k][j];
            if (!r.ok || expected.empty() || r.body != expected) {
                ++failed;
                errors += std::string(errors.size() > 1 ? "," : "") +
                    jsonString("session " + std::to_string(k) + " job " +
                               std::to_string(j) + ": " +
                               (r.ok ? "envelope differs from offline"
                                     : r.error));
            }
        }
    }
    errors += "]";

    std::string jobsJson = "[";
    for (size_t k = 0; k < results.size(); ++k)
        for (size_t j = 0; j < jobs.size(); ++j) {
            const JobResult &r = results[k][j];
            jobsJson += std::string(jobsJson.size() > 1 ? "," : "") +
                JsonObject()
                    .num("ms", r.ms)
                    .num("submit_ms", r.submitMs)
                    .num("queue_wait_ms", r.queueWaitMs)
                    .num("fetch_ms", r.fetchMs)
                    .json();
        }
    jobsJson += "]";

    if (traced)
        tracer->write(args.get("trace") + "/daemon.spans.jsonl",
                      args.get("trace") + "/daemon.layers.json");
    std::printf(
        "%s\n",
        JsonObject()
            .raw("sessions", sessions)
            .raw("jobs", jobsJson)
            .num("attempted", static_cast<double>(results.size() *
                                                  jobs.size()))
            .num("failed", static_cast<double>(failed))
            .num("cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0)
            .raw("errors", errors)
            .json()
            .c_str());
    return failed == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_driver info|hostref|campaign|daemon "
                             "[--key value ...]\n");
        return 2;
    }
    std::string cmd = argv[1];
    try {
        if (cmd == "info")
            return cmdInfo();
        if (cmd == "hostref")
            return cmdHostRef();
        Args args(argc, argv, 2);
        if (cmd == "campaign")
            return cmdCampaign(args);
        if (cmd == "daemon")
            return cmdDaemon(args);
        std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
        return 2;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
