/**
 * @file
 * Mitigation strategies behind a common interface.
 *
 * Every strategy answers the same question — given a (possibly
 * faulty) array and a training set, what accuracy can the mapped
 * task reach? — but spends different hardware/diagnosis budgets:
 *
 *  - NoOp:          baseline weights on the faulty array, no
 *                   retraining, no diagnosis (lower bound).
 *  - RetrainOnly:   the paper's blind mitigation — retrain through
 *                   the faulty array (Section VI-C).
 *  - BypassFaulty:  BIST diagnosis, then disconnect diagnosed units
 *                   (zero product / skipped stage / silenced
 *                   neuron) and retrain around the bypasses with
 *                   the matching synapse-level prune mask on the
 *                   trainer's shadow weights — fault-aware pruning
 *                   in the style of Zhang et al. (arXiv:1802.04657).
 *  - RemapToSpares: BIST diagnosis, then steer logical outputs off
 *                   diagnosed-faulty physical output rows onto
 *                   clean spare rows (map-driven use of the spare
 *                   output neurons the paper adds blindly; plan:
 *                   planOutputRemap), plus retraining for the
 *                   hidden layer.
 *  - ClampActivations: blind (no diagnosis) learned activation
 *                   clamping — per-layer windows profiled from the
 *                   clean reference network bound every activation
 *                   unit's datapath output, filtering the
 *                   exceptional values faulty sigmoid units emit
 *                   before they reach the next layer; retraining
 *                   runs through the clamped array so the weights
 *                   adapt to the filter (Liu-Cheng style).
 *  - ReplicateCritical: BIST diagnosis, then replicate
 *                   diagnosed-faulty output rows onto clean spare
 *                   rows and merge the copies with the spare-array
 *                   median voter (RedMulE-FT style replication +
 *                   voting; plan: planOutputReplication) — the
 *                   suspect row stays in the vote, so a
 *                   median-of-3 tolerates a wrong diagnosis.
 *
 * The two spare-row strategies run one model (core/row_map's
 * RowMappedMlp) and differ only in their plan.
 */

#ifndef DTANN_MITIGATE_MITIGATOR_HH
#define DTANN_MITIGATE_MITIGATOR_HH

#include <functional>
#include <memory>
#include <string>

#include "ann/trainer.hh"
#include "circuit/sim_counters.hh"
#include "core/row_map.hh"
#include "mitigate/bist.hh"

namespace dtann {

/** The implemented mitigation strategies. */
enum class Strategy : uint8_t {
    NoOp,
    RetrainOnly,
    BypassFaulty,
    RemapToSpares,
    ClampActivations,
    ReplicateCritical,
};

/** Every implemented strategy, in enum order — the single source
 *  the name parser, spec error messages, and default campaign
 *  racing lists derive from. */
const std::vector<Strategy> &allStrategies();

/** Stable short name (used in reports and JSON exports). */
const char *strategyName(Strategy s);

/** Parse a strategyName(); returns false on unknown names. */
bool strategyFromName(const std::string &name, Strategy &out);

/** "noop, retrain, ..." — for error messages naming a bad value. */
std::string strategyNameList();

/**
 * Whether @p s can run on @p backend. The spare-output-row
 * strategies (remap, replicate) steer logical outputs across
 * physical output rows — structure only the spatially expanded
 * array has. The weight-stationary systolic grid shares its columns
 * between both passes and provisions no spare rows, so those two
 * strategies have no hardware to drive there; everything else is
 * backend-agnostic.
 */
bool strategySupported(Strategy s, BackendKind backend);

/** Per-cell inputs shared by every strategy. */
struct MitigationSetup
{
    AcceleratorConfig array;     ///< physical array dimensions
    MlpTopology logical;         ///< task network
    const Dataset &ds;           ///< task dataset
    Hyper retrain;               ///< retraining hyper-parameters
    const DeepWeights &baseline; ///< clean-trained warm-start weights
    int folds = 10;              ///< cross-validation folds
    BistConfig bist;             ///< diagnosis budget
    /** Hardware target the strategy instantiates. Strategies that
     *  require spatial structure assert strategySupported(). */
    BackendKind backend = BackendKind::Spatial;
};

/** What one strategy achieved on one faulty array. */
struct MitigationOutcome
{
    double accuracy = 0.0;
    /** Diagnosis coverage vs ground truth (1.0 for blind
     *  strategies, which diagnose nothing and miss nothing by
     *  their own contract). */
    double coverage = 1.0;
    int diagnosed = 0;      ///< suspect units flagged by BIST
    int mitigatedUnits = 0; ///< units bypassed / outputs remapped
    SimCounters sim;        ///< gate-simulation work of this cell
};

/**
 * One mitigation strategy. run() owns the whole cell: it builds the
 * hardware model (strategies choose their own array mapping), has
 * @p inject install the cell's defects, diagnoses when the strategy
 * uses a map, mitigates, and measures accuracy.
 */
class Mitigator
{
  public:
    virtual ~Mitigator() = default;

    virtual Strategy kind() const = 0;

    std::string name() const { return strategyName(kind()); }

    /**
     * @param setup shared cell inputs
     * @param inject installs the cell's defects into the freshly
     *        built accelerator (the campaign drives this from a
     *        strategy-independent RNG stream so every strategy
     *        faces identical physical defects)
     * @param rng the strategy's own randomness (diagnosis vectors,
     *        fold shuffling, retraining)
     */
    virtual MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &rng) = 0;
};

/** Build the requested strategy. */
std::unique_ptr<Mitigator> makeMitigator(Strategy s);

/**
 * The remap plan for @p map: logical output k keeps row k when
 * clean; a diagnosed-faulty row moves to the lowest clean spare row
 * (rows logical.outputs .. cfg.outputs-1, each used once). A row
 * counts as faulty when any output-layer unit on it is suspect.
 * When spares run out, the remaining faulty rows keep their own
 * row (mitigation degrades gracefully to retrain-only for them).
 */
RowPlan planOutputRemap(const DefectMap &map, MlpTopology logical,
                        const AcceleratorConfig &cfg);

/**
 * The replication plan for @p map: the same spare-row scan as
 * planOutputRemap(), but a diagnosed-faulty row stays first in its
 * group and recruits up to two clean spare rows, for a median-of-3
 * vote; with only one spare left the pair averages (halving the
 * deviation). Clean rows stay singletons.
 */
RowPlan planOutputReplication(const DefectMap &map, MlpTopology logical,
                              const AcceleratorConfig &cfg);

/**
 * The synapse-level prune mask matching @p accel's active bypasses
 * for a task mapped with @p logical (coordinates in the logical
 * 2-stage weight space): a bypassed multiplier/latch prunes its
 * synapse, a bypassed adder stage prunes the synapse whose product
 * it would have accumulated, and a bypassed hidden activation
 * prunes every output-layer synapse reading that silenced neuron.
 * Bypasses on physical units outside the logical mapping carry no
 * trainable weight and are skipped. On the systolic backend a
 * bypassed grid unit is shared by both passes, so its mask entries
 * cover the matching synapse in *both* logical stages.
 */
std::vector<PrunedSynapse>
pruneMaskForBypasses(const HardwareBackend &accel, MlpTopology logical);

} // namespace dtann

#endif // DTANN_MITIGATE_MITIGATOR_HH
