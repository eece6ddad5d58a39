/**
 * @file
 * Head-to-head mitigation campaign.
 *
 * Sweeps defect counts x mitigation strategies over the benchmark
 * tasks as one cell table on the CampaignEngine, producing one
 * accuracy-vs-defects curve per (task, strategy) — directly
 * comparable to Fig 10 — annotated with the measured diagnosis
 * coverage. Every strategy of a given (task, defect count,
 * repetition) cell faces *identical* physical defects: the
 * injection stream is derived without the strategy coordinate.
 */

#ifndef DTANN_MITIGATE_CAMPAIGN_HH
#define DTANN_MITIGATE_CAMPAIGN_HH

#include "core/campaign.hh"
#include "mitigate/mitigator.hh"

namespace dtann {

/** Scaling knobs of the mitigation campaign. */
struct MitigationConfig : CampaignConfig
{
    std::vector<int> defectCounts = {0, 2, 4, 8, 14, 20};
    /** Every implemented strategy races by default. */
    std::vector<Strategy> strategies = allStrategies();
    /** Diagnosis budget used by the map-driven strategies. */
    BistConfig bist;
    /**
     * Defects land anywhere in the array by default (unlike Fig 10's
     * input+hidden pool) so the output-layer weak spot that
     * RemapToSpares addresses is part of the comparison.
     */
    SitePool injectPool = SitePool::all();

    /** JSON object (spec echo). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static MitigationConfig fromJson(const JsonValue &v);
};

/** One (defect count, accuracy) point of a strategy's curve. */
struct MitigationPoint
{
    int defects;
    double accuracy;
    double stddev;
    double coverage;  ///< mean diagnosis coverage vs ground truth
    double mitigated; ///< mean units bypassed / outputs remapped
    /** Cells aggregated into this point. A sharded run can starve a
     *  (strategy, defect) pair entirely — then the count is 0 and
     *  the means above are 0 by the RunningStat empty contract
     *  (never NaN). */
    long samples = 0;
};

/**
 * Hardware budget of one (task, strategy) pair, costed from the
 * same netlist-measured transistor counts as core/cost_model's
 * Table III calibration. Overheads are fractions of the base
 * array's area / per-row energy. Spare output rows count against
 * the strategies that *require* them (remap, replicate): a chip
 * provisioned for any other strategy could omit those rows.
 * Scan-access logic is static in mission mode, so it contributes
 * area but not per-row energy; the BIST vector budget is one-time
 * configuration work reported explicitly rather than folded into
 * the per-row numbers.
 */
struct MitigationCost
{
    int spareRows = 0;             ///< provisioned spare output rows
    int bistVectorsPerUnit = 0;    ///< diagnosis budget (0 = blind)
    size_t missionTransistors = 0; ///< added logic toggling per row
    size_t testTransistors = 0;    ///< scan access (static in mission)
    double areaOverhead = 0.0;     ///< added area / base array area
    double energyOverhead = 0.0;   ///< added row energy / base row energy

    /** Machine-readable export (single JSON object). */
    std::string toJson() const;
};

/**
 * Cost @p s on @p array for a task mapped as @p logical, with unit
 * populations counted for @p backend (the systolic grid shares its
 * PEs between both passes and provisions no spare rows). Overhead
 * ratios are always reported against the paper's spatial base
 * array, keeping them comparable across backends.
 */
MitigationCost mitigationCost(Strategy s,
                              const AcceleratorConfig &array,
                              MlpTopology logical,
                              const BistConfig &bist,
                              BackendKind backend =
                                  BackendKind::Spatial);

/** Accuracy-vs-defects curve of one (task, strategy) pair. */
struct MitigationCurve
{
    std::string task;
    Strategy strategy;
    std::vector<MitigationPoint> points;
    SimCounters sim; ///< gate-simulation work over this curve's cells
    /** The strategy's hardware budget on this task's mapping. */
    MitigationCost cost;
    /** Mean accuracy over the defective points (defects > 0) — the
     *  y coordinate of this curve's accuracy-vs-area/energy Pareto
     *  point (cost carries the x coordinates). */
    double paretoAccuracy = 0.0;

    /** Machine-readable export (single JSON object). */
    std::string toJson() const;
};

/**
 * Cell rows of the mitigation campaign, task-major, then by defect
 * count, then by strategy:
 * (task, "v<index>:d<defects>:<strategy>", repetitions), one
 * repetition at 0 defects. Throws JsonError on an unknown or
 * repeated task, a repeated strategy (checkRows()), and past
 * kMaxCells cells.
 */
std::vector<CellRow> cellRows(const MitigationConfig &config);

/**
 * Run the mitigation campaign; curves are ordered task-major, then
 * by the config's strategy order. Bit-identical for any thread
 * count.
 */
std::vector<MitigationCurve>
runMitigationCampaign(const MitigationConfig &config);

} // namespace dtann

#endif // DTANN_MITIGATE_CAMPAIGN_HH
