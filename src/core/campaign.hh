/**
 * @file
 * Experiment campaigns reproducing the paper's figures.
 *
 * Fig 5: output-value distributions of small operators under
 * transistor-level vs gate-level defects.
 * Fig 10: classification accuracy vs number of defects in the
 * input and hidden layers, after retraining.
 * Fig 11: accuracy vs error amplitude for single defects in the
 * output layer's adders/activation functions.
 *
 * Each campaign kind is a cell table (core/engine.hh): cellRows()
 * lists its (task, variant, repetitions) rows without building
 * anything, and its runner gives CampaignEngine::runCells() one
 * function per (row, rep) cell, which derives its own counter-based
 * RNG stream, plus the cell's journal payload codec and progress
 * label. The engine loop owns cell keys, journal replay, sharding
 * and progress; the runner folds the computed cells by walking rows
 * x reps, so results are bit-identical for any thread count. The
 * same rows are the admission plan (ScenarioSpec::cellRows()).
 * Curves carry toJson() exporters; benches mirror them to
 * $DTANN_JSON_OUT for the perf-trajectory tooling.
 */

#ifndef DTANN_CORE_CAMPAIGN_HH
#define DTANN_CORE_CAMPAIGN_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ann/trainer.hh"
#include "circuit/sim_counters.hh"
#include "common/stats.hh"
#include "core/engine.hh"
#include "data/synth_uci.hh"
#include "rtl/builder.hh"

namespace dtann {

// ---------------------------------------------------------------
// Fig 5

/** Operator targeted by the Fig 5 experiment. */
enum class Fig5Operator : uint8_t { Adder4, Multiplier4 };

/** Stable operator name ("adder4"/"multiplier4"), used in JSON. */
const char *fig5OperatorName(Fig5Operator op);

/** Parse a fig5OperatorName(); returns false on unknown names. */
bool fig5OperatorFromName(const std::string &name, Fig5Operator &out);

/**
 * Scaling knobs of the small-operator defect campaign. Execution
 * fields (repetitions/seed/threads/progress/journal) come from the
 * shared CampaignRunConfig base, so every campaign config presents
 * one API shape to the scenario-spec parser.
 */
struct Fig5Config : CampaignRunConfig
{
    Fig5Config() { repetitions = 1000; }

    Fig5Operator op = Fig5Operator::Adder4;
    int defects = 1;
    FaStyle style = FaStyle::Nand9;

    /** JSON object (spec echo). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static Fig5Config fromJson(const JsonValue &v);
};

/** Result histograms of one Fig 5 configuration. */
struct Fig5Result
{
    Fig5Operator op;
    int defects;
    int repetitions;
    FaStyle style = FaStyle::Nand9;
    uint64_t seed = 0;  ///< the variant's derived seed
    IntHistogram none;  ///< defect-free output distribution
    IntHistogram gate;  ///< gate-level stuck-at injections
    IntHistogram trans; ///< transistor-level injections
    SimCounters sim;    ///< gate-simulation work accounting

    /** Machine-readable export (single JSON object). */
    std::string toJson() const;
};

/**
 * Cell rows of the Fig 5 @p variants, one per variant:
 * (operator, "d<defects>", repetitions), with the variant index as
 * the row's task coordinate. Throws JsonError when two variants
 * share an (operator, defect count) pair (checkRows()) or past
 * kMaxCells cells (checkCellBound()).
 */
std::vector<CellRow> cellRows(const std::vector<Fig5Config> &variants);

/**
 * Run Fig 5 @p variants as one campaign: each variant's
 * repetitions are random injections, each evaluated on all 256
 * input pairs in random order. Execution knobs (threads, journal,
 * progress) are read from the first variant.
 */
std::vector<Fig5Result> runFig5(const std::vector<Fig5Config> &variants);

/** Run one Fig 5 configuration. */
Fig5Result runFig5(const Fig5Config &config);

// ---------------------------------------------------------------
// Fig 10

/** Scaling knobs of the defect-tolerance campaign. */
struct Fig10Config : CampaignConfig
{
    std::vector<int> defectCounts = {0, 3, 6, 9, 12, 15, 18, 21, 24, 27};
    /**
     * When false, the faulty network is tested with the clean
     * baseline weights instead of being retrained — the ablation
     * that isolates the contribution of retraining ("the network
     * capacity to silence out defects").
     */
    bool retrain = true;

    /** JSON object (spec echo). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static Fig10Config fromJson(const JsonValue &v);
};

/** One (defect count, accuracy) point. */
struct Fig10Point
{
    int defects;
    double accuracy;
    double stddev;
};

/** Accuracy curve of one task. */
struct Fig10Curve
{
    std::string task;
    std::vector<Fig10Point> points;
    SimCounters sim; ///< gate-simulation work over this task's cells

    /** Machine-readable export (single JSON object). */
    std::string toJson() const;
};

/**
 * Cell rows of the Fig 10 campaign, task-major then by defect
 * count: (task, "v<index>:d<defects>", repetitions), one
 * repetition at 0 defects. Throws JsonError on an unknown or
 * repeated task (checkRows()) and past kMaxCells cells.
 */
std::vector<CellRow> cellRows(const Fig10Config &config);

/** Run the Fig 10 campaign. */
std::vector<Fig10Curve> runFig10(const Fig10Config &config);

// ---------------------------------------------------------------
// Fig 11

/** Scaling knobs of the output-layer amplitude campaign. */
struct Fig11Config : CampaignConfig
{
    /** JSON object (spec echo). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static Fig11Config fromJson(const JsonValue &v);
};

/** One faulty network's (amplitude, accuracy) observation. */
struct Fig11Sample
{
    std::string task;
    double amplitude; ///< mean |faulty - clean| at the faulty unit
    double accuracy;
    std::string site;
};

/** Accuracy-vs-amplitude series of one task (log-binned). */
struct Fig11Curve
{
    std::string task;
    std::vector<std::pair<double, double>> binAccuracy; ///< (amp, acc)
    std::vector<Fig11Sample> samples;
    SimCounters sim; ///< gate-simulation work over this task's cells

    /** Machine-readable export (single JSON object). */
    std::string toJson() const;
};

/**
 * Cell rows of the Fig 11 campaign, one per task:
 * (task, "v0", repetitions). Throws JsonError on an unknown or
 * repeated task (checkRows()) and past kMaxCells cells.
 */
std::vector<CellRow> cellRows(const Fig11Config &config);

/** Run the Fig 11 campaign. */
std::vector<Fig11Curve> runFig11(const Fig11Config &config);

// ---------------------------------------------------------------
// Shared helpers (public so benches/tests don't re-implement them)

/** Task specs selected by a campaign config (empty = all 10). */
std::vector<UciTaskSpec> selectTasks(const std::vector<std::string> &names);

/**
 * Task names selected by @p config (empty = all 10), validated
 * without uciTask(), which exits the process on an unknown name:
 * throws JsonError instead, so a daemon can refuse the spec.
 */
std::vector<std::string> taskNames(const CampaignConfig &config);

/**
 * Per-task state shared (read-only) by every cell of that task:
 * the dataset, the topology, and the clean baseline weights that
 * warm-start each retraining run. Building one is the expensive
 * pre-cell phase of the network-level campaigns (dataset synthesis
 * plus a full clean-accelerator training run), and it is a pure
 * function of the campaign's (seed, rows, epoch scale, array) plus
 * the task spec and its index — which is what makes it cacheable
 * across concurrent campaigns (see SharedContextCache).
 */
struct TaskContext
{
    UciTaskSpec spec;
    Dataset ds;
    Hyper hyper;
    MlpTopology logical;
    DeepWeights baseline;
};

/**
 * Cross-campaign cache for the expensive deterministic state the
 * campaigns otherwise rebuild per run: prepared task contexts
 * (dataset + clean baseline) and operator netlists. Implementations
 * must be thread-safe and must return the build() result for a key
 * exactly once — concurrent requests for the same key share one
 * build. Keys canonically encode every input of the build (see
 * taskContextKey()), so a cache hit is bit-identical to a rebuild.
 *
 * The campaign daemon installs one of these per process
 * (CampaignRunConfig::contextCache); offline runs leave the pointer
 * null and build directly.
 */
class SharedContextCache
{
  public:
    virtual ~SharedContextCache() = default;

    /** Cached TaskContext for @p key, building via @p build on miss. */
    virtual std::shared_ptr<const TaskContext>
    task(const std::string &key,
         const std::function<TaskContext()> &build) = 0;

    /** Cached operator netlist for @p key (e.g. "adder4/nand9"). */
    virtual std::shared_ptr<const Netlist>
    netlist(const std::string &key,
            const std::function<Netlist()> &build) = 0;
};

/**
 * Canonical cache key of the TaskContext prepareCampaignTasks()
 * builds for task @p index of @p config: every config field the
 * build depends on (seed, rows, epoch scale, array) plus the task
 * name and its index (the RNG substreams are index-addressed).
 * Deliberately campaign-kind-agnostic: Fig 10, Fig 11 and the
 * mitigation campaign derive identical contexts from identical
 * (seed, scale) configs and therefore share cache entries.
 */
std::string taskContextKey(const CampaignConfig &config,
                           const UciTaskSpec &spec, size_t index);

/**
 * Prepare the per-task contexts of @p specs in parallel on
 * @p engine, consulting @p config.contextCache when set. Shared by
 * every network-level campaign (Fig 10/11, mitigation).
 */
std::vector<std::shared_ptr<const TaskContext>>
prepareCampaignTasks(CampaignEngine &engine,
                     const CampaignConfig &config,
                     const std::vector<UciTaskSpec> &specs);

/** Hyper-parameters used on the hardware for @p spec. */
Hyper hardwareHyper(const UciTaskSpec &spec, const AcceleratorConfig &a,
                    double epoch_scale);

/** Retraining variant of @p hyper with scaled-down epochs. */
Hyper retrainHyper(const Hyper &hyper, double retrain_scale);

/** JSON array over per-curve toJson(). */
template <typename Curve>
std::string
toJson(const std::vector<Curve> &curves)
{
    std::string out = "[";
    for (size_t i = 0; i < curves.size(); ++i) {
        if (i > 0)
            out += ",";
        out += curves[i].toJson();
    }
    out += "]";
    return out;
}

/**
 * The shared export envelope: every campaign/bench JSON export is
 * one object of the form
 *
 *   {"kind": <campaign kind>, "config": <config echo>,
 *    "seed": <campaign seed>, "sim": <SimCounters>,
 *    "results": <kind-specific payload>}
 *
 * so downstream tooling can dispatch on "kind" and reproduce any
 * result from its embedded config echo and seed alone.
 */
std::string campaignEnvelope(const std::string &kind,
                             const std::string &configJson,
                             uint64_t seed, const SimCounters &sim,
                             const std::string &resultsJson);

/**
 * Mirror a JSON payload to $DTANN_JSON_OUT/<name>.json when that
 * environment variable names a directory. All benches and the
 * dtann_campaign driver export through this one path; payloads are
 * campaignEnvelope() objects.
 *
 * @return true when a file was written
 */
bool maybeWriteJson(const std::string &name, const std::string &json);

} // namespace dtann

#endif // DTANN_CORE_CAMPAIGN_HH
