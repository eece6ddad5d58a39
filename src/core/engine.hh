/**
 * @file
 * Parallel campaign engine and the one cell loop every campaign
 * kind runs through.
 *
 * The paper's defect-injection campaigns (Figs 5/10/11 and the
 * mitigation sweep) are embarrassingly parallel: each cell is one
 * independent faulty repetition (inject, optionally retrain, test).
 * A campaign kind describes itself as a CellTable: its rows of
 * identical-shape cells (task, variant, repetitions), how to
 * compute one repetition of a row, how to encode and decode the
 * cell's journal payload, and its progress label. The rows are the
 * whole plan: admission, `--validate` and the cell count read them
 * without expanding one key per cell. CampaignEngine::runCells()
 * owns everything else, in one place: it maps flat cell index i to
 * (row, rep) row-major, derives the CellKey when a journal is set,
 * and does progress accounting, journal replay, the shard filter,
 * journal stores and the per-cell "computed" mark. Kinds fold the
 * returned results by walking rows x reps and skip cells that were
 * not computed (a sharded run leaves other shards' cells empty).
 *
 * Determinism: every cell derives all of its randomness with
 * Rng::substream(seed, {stream, task, variant, rep}) — counter-based
 * splitting, a pure function of the cell coordinates — and results
 * are accumulated in cell-index order after the parallel phase.
 * Campaign output is therefore bit-identical for any thread count,
 * including 1 (covered by EngineDeterminism tests).
 */

#ifndef DTANN_CORE_ENGINE_HH
#define DTANN_CORE_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"

namespace dtann {

class JsonValue;          // common/json.hh
class SharedContextCache; // core/campaign.hh

/**
 * Thrown by CampaignEngine::parallelFor when the campaign's cancel
 * flag (CampaignRunConfig::cancel) is raised: remaining cells are
 * skipped, the batch drains, and the campaign unwinds through the
 * runner without producing a result. Journaled cells survive, so a
 * cancelled campaign resubmitted against the same journal resumes
 * where it stopped.
 */
struct CampaignCancelled : std::runtime_error
{
    CampaignCancelled() : std::runtime_error("campaign cancelled") {}
};

/** Progress report for one finished campaign cell. */
struct CellReport
{
    std::string task;  ///< task name
    int defects;       ///< defect count of the cell
    int rep;           ///< repetition index within (task, defects)
    double accuracy;   ///< cell outcome
    size_t cellsDone = 0;  ///< cells finished so far (including this one)
    size_t cellsTotal = 0; ///< total cells in the campaign
};

/**
 * Per-cell progress callback. Invoked from worker threads but
 * serialized by the engine, so implementations need no locking.
 * Completion *order* is scheduling-dependent; the campaign results
 * themselves are not.
 */
using ProgressCallback = std::function<void(const CellReport &)>;

/**
 * Stable address of one campaign cell in a results journal.
 *
 * Cells are independent, deterministic work units: all of a cell's
 * randomness derives from Rng::substream(seed, {root, task, variant,
 * rep}), so a journaled cell result keyed by these coordinates can
 * be replayed into a resumed campaign bit-identically. The variant
 * component is a self-describing string (e.g. "v2:d6", or
 * "v1:d4:bypass" for mitigation cells) because different campaign
 * kinds sweep different axes.
 */
struct CellKey
{
    std::string campaign; ///< campaign kind ("fig5", "fig10", ...)
    std::string task;     ///< task or operator name
    std::string variant;  ///< swept-axis coordinates within the task
    uint64_t rep = 0;     ///< repetition index within the variant

    /** Canonical "campaign/task/variant/rep" form (map key). */
    std::string toString() const;
};

/** Sweep indices one row's work derives from (the row carries the
 *  names). */
struct CellCoords
{
    size_t task = 0;     ///< task index (fig5: variant index)
    size_t variant = 0;  ///< defect-count index
    size_t strategy = 0; ///< mitigation strategy index
};

/**
 * One (task, variant) group of identical-shape cells: repetitions
 * 0 .. reps-1 of cell key {campaign, task, variant, rep}.
 */
struct CellRow
{
    std::string task;    ///< task or operator name (CellKey form)
    std::string variant; ///< swept-axis coordinates (CellKey form)
    size_t reps = 0;     ///< repetitions scheduled for the row
    CellCoords coords;   ///< sweep indices of the row
};

/**
 * Most cells one campaign may list. Every cell has a result slot
 * while the campaign runs, so an unbounded spec would exhaust
 * memory; the full paper-scale Fig 10 lists 9,010.
 */
constexpr size_t kMaxCells = size_t(1) << 20;

/** Total cells of @p rows (the sum of their repetitions). */
size_t cellCount(const std::vector<CellRow> &rows);

/**
 * Throw JsonError naming @p cells, a count the campaign lists at
 * least, when it exceeds kMaxCells. Each kind's cellRows() computes
 * its cell count from the config and calls it once, before it
 * builds any row, so no row of an oversized spec is built.
 */
void checkCellBound(size_t cells);

/**
 * @p a times @p b for cell counts: exact up to 2^31, saturated
 * there beyond (still past kMaxCells), so the product of a spec's
 * axis lengths never wraps.
 */
size_t cellProduct(size_t a, size_t b);

/**
 * Check the rows every kind's cellRows() enumeration ends with:
 * throws JsonError naming the first key that repeats an earlier
 * row's (two rows sharing (task, variant) share every journal key,
 * so the second would replay the first's payload).
 */
void checkRows(const std::string &campaign,
               const std::vector<CellRow> &rows);

/**
 * Checkpoint store consulted by the campaign runners: before a cell
 * is computed, lookup() may produce the journaled payload of a
 * previous run (the cell is then skipped); after a cell is
 * computed, store() persists its payload. Payloads are JSON
 * produced and parsed by the campaign that owns the cell, and
 * round-trip exactly, so a resumed campaign is bit-identical to an
 * uninterrupted one. Both methods are called from worker threads
 * and must be thread-safe.
 */
class CellCache
{
  public:
    virtual ~CellCache() = default;

    /** @return true and the payload when @p key is journaled. */
    virtual bool lookup(const CellKey &key, std::string &payload) = 0;

    /** Persist a freshly computed cell result. */
    virtual void store(const CellKey &key,
                       const std::string &payload) = 0;
};

/**
 * Look @p key up in @p journal (nullptr = no journal) and hand the
 * parsed payload to @p decode. Returns true when the cell was
 * replayed from the journal and must be skipped; returns false —
 * the cell must be computed — when the journal has no such key or
 * the payload fails to parse (corrupt journals degrade to
 * recomputation, never to a crash; a warning is logged).
 */
bool journalLookup(
    CellCache *journal, const CellKey &key,
    const std::function<void(const class JsonValue &)> &decode);

/**
 * Execution knobs shared by *every* campaign config, including
 * Fig5Config (hoisted from the former per-config duplication so
 * the spec parser sees one API shape everywhere).
 */
struct CampaignRunConfig
{
    int repetitions = 100; ///< faulty networks per campaign point
    uint64_t seed = 1;
    /** Worker threads; 0 = auto (DTANN_THREADS, else hardware). */
    int threads = 0;
    /** Optional per-cell progress callback. */
    ProgressCallback onCellDone;
    /** Optional checkpoint/resume store (owned by the caller). */
    CellCache *journal = nullptr;
    /**
     * Optional cooperative cancellation flag (owned by the caller).
     * Once it reads true, the engine stops starting cells and the
     * runner unwinds with CampaignCancelled.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Optional externally owned worker pool. When set, the engine
     * schedules its batches there instead of creating a pool of its
     * own — the campaign daemon points every admitted job here, so
     * concurrent jobs share one pool fair-share (`threads` is then
     * ignored). Results are bit-identical either way.
     */
    ThreadPool *sharedPool = nullptr;
    /**
     * Optional cross-campaign cache for the expensive read-only
     * state (netlist, dataset + clean baseline weights) campaigns
     * prepare before their cells run; see core/campaign.hh. Shared
     * by concurrent daemon jobs so the same circuit is built once.
     */
    SharedContextCache *contextCache = nullptr;
    /**
     * Deterministic multi-process sharding: with shardCount > 1
     * this run computes only the cells whose flat index i within
     * each campaign cell list satisfies i % shardCount ==
     * shardIndex; the rest stay empty (journaled cells replay
     * regardless of the filter). Cells are placement-independent —
     * all their randomness is Rng::substream of the cell
     * coordinates — so merging the shards' journals and replaying
     * them through an unsharded run reproduces the single-process
     * result byte for byte. Execution knobs only: never serialized
     * into specs or journal echoes.
     */
    int shardCount = 1;
    /** This worker's shard in [0, shardCount). */
    int shardIndex = 0;

    /** True when flat cell index @p i belongs to this shard. */
    bool inShard(size_t i) const
    {
        return shardCount <= 1 ||
               i % static_cast<size_t>(shardCount) ==
                   static_cast<size_t>(shardIndex);
    }

    /** Shared-field JSON fragment (no surrounding braces). */
    std::string jsonRunFields() const;
    /** Populate the shared fields present in JSON object @p v. */
    void readRunFields(const class JsonValue &v);
};

/**
 * Knobs shared by the network-level campaigns (Fig 10/11, the
 * mitigation sweep). Figure-specific configs derive from this.
 */
struct CampaignConfig : CampaignRunConfig
{
    std::vector<std::string> tasks; ///< empty = all 10
    int folds = 10;        ///< cross-validation folds
    size_t rows = 0;       ///< dataset size (0 = original)
    double epochScale = 1.0;    ///< scales baseline training epochs
    double retrainScale = 0.25; ///< retraining epochs vs baseline
    AcceleratorConfig array;
    /** Unit-instance draw: the paper picks operators/latches
     *  uniformly ("randomly pick one of the logic operators or
     *  latches"). */
    SiteWeighting weighting = SiteWeighting::Uniform;
    /** Hardware target the campaign cells instantiate. */
    BackendKind backend = BackendKind::Spatial;

    /** Shared-field JSON fragment (run fields + campaign fields). */
    std::string jsonCampaignFields() const;
    /** Populate the shared fields present in JSON object @p v. */
    void readCampaignFields(const class JsonValue &v);
};

/**
 * One campaign kind as a table of independent cells: flat cell
 * index i walks @p rows row-major, then by repetition. @p Result is
 * the kind's per-cell outcome.
 */
template <typename Result>
struct CellTable
{
    std::string campaign;      ///< CellKey campaign component
    std::vector<CellRow> rows; ///< the cells, as cellRows() lists them
    /** Compute one repetition of a row; derives its own
     *  Rng::substream. */
    std::function<Result(const CellRow &, uint64_t)> run;
    /** Journal payload of a computed cell. */
    std::function<std::string(const Result &)> encode;
    /** Inverse of encode; throws JsonError on a missing field. */
    std::function<Result(const JsonValue &)> decode;
    /** Progress label of a cell (cellsDone/cellsTotal left 0). */
    std::function<CellReport(const CellRow &, uint64_t,
                             const Result &)>
        label;
};

/**
 * Fixed-size worker pool plus campaign progress accounting.
 *
 * Campaign code uses it in two phases: parallelFor over tasks to
 * prepare shared per-task state (dataset, baseline weights), then
 * runCells() over the kind's cell table.
 */
class CampaignEngine
{
  public:
    /** Engine for @p config (thread count and progress callback). */
    explicit CampaignEngine(const CampaignRunConfig &config);

    /** Resolved execution width (>= 1). */
    int threads() const { return pool->size(); }

    /**
     * Run fn(0) .. fn(n-1) on the pool; blocks until done. @p fn
     * must derive randomness only from its index (Rng::substream)
     * and write only to its own result slot. When the config's
     * cancel flag is raised, unstarted indices are skipped and
     * CampaignCancelled is thrown once the batch drains.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Run every cell of @p table under @p config: progress counts
     * 1 .. cellCount(rows), a journaled cell replays its payload, a
     * cell outside this run's shard stays empty, and a computed
     * cell is stored to the journal before it is reported.
     *
     * @return cell i's result, or nullopt when this run neither
     *         replayed nor computed it; in cell-index order
     */
    template <typename Result>
    std::vector<std::optional<Result>>
    runCells(const CampaignRunConfig &config,
             const CellTable<Result> &table);

  private:
    /** Arm progress accounting for a campaign of @p total cells. */
    void beginCampaign(size_t total);

    /**
     * Record one finished cell: fills in the done/total counters
     * and invokes the progress callback (if any). Thread-safe.
     */
    void reportCell(CellReport report);

    std::unique_ptr<ThreadPool> owned; ///< empty with a shared pool
    ThreadPool *pool;                  ///< owned.get() or borrowed
    const std::atomic<bool> *cancel = nullptr;
    ProgressCallback onCellDone;
    std::mutex mu;
    size_t done = 0;
    size_t total = 0;
};

template <typename Result>
std::vector<std::optional<Result>>
CampaignEngine::runCells(const CampaignRunConfig &config,
                         const CellTable<Result> &table)
{
    // starts[r] is the flat index of row r's repetition 0.
    std::vector<size_t> starts;
    size_t n = 0;
    for (const CellRow &row : table.rows) {
        starts.push_back(n);
        n += row.reps;
    }
    std::vector<std::optional<Result>> out(n);
    beginCampaign(n);
    parallelFor(n, [&](size_t i) {
        size_t r = static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), i) -
            starts.begin() - 1);
        const CellRow &row = table.rows[r];
        uint64_t rep = i - starts[r];
        std::optional<CellKey> key;
        if (config.journal != nullptr)
            key = CellKey{table.campaign, row.task, row.variant, rep};
        // Decoded whole before it is committed: a payload missing a
        // field throws inside decode and leaves out[i] untouched.
        if (!key || !journalLookup(config.journal, *key,
                                   [&](const JsonValue &v) {
                                       out[i] = table.decode(v);
                                   })) {
            // Sharded worker: cells owned by other shards are left
            // for their processes; the merged journals replay them.
            if (!config.inShard(i))
                return;
            out[i] = table.run(row, rep);
            if (key)
                config.journal->store(*key, table.encode(*out[i]));
        }
        reportCell(table.label(row, rep, *out[i]));
    });
    return out;
}

} // namespace dtann

#endif // DTANN_CORE_ENGINE_HH
