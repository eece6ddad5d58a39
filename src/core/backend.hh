/**
 * @file
 * The hardware-backend boundary of the defect-tolerance study.
 *
 * The paper measures defect tolerance on one microarchitecture —
 * the spatially expanded 90-10-10 array — but the question is
 * architecture-relative: the same transistor defect corrupts a
 * different slice of the computation on a different dataflow. A
 * HardwareBackend is everything the campaign stack needs from a
 * microarchitecture:
 *
 *  - a ForwardModel for the mapped logical task (so the companion
 *    core retrains through the faulty hardware),
 *  - a defect-injection surface (unit sites, netlists, injection),
 *  - BIST scan hooks for the diagnosis harness,
 *  - bypass/clamp mitigation hooks, and
 *  - deviation probes + simulation work counters.
 *
 * The fault-hosting machinery (shared operator netlists, per-site
 * gate-level simulations, bypass muxes, clamp windows, deviation
 * probes) is identical across backends and lives here concretely,
 * in one table of physical units. A backend contributes its
 * *dataflow*: whether the two passes share their units (the one
 * fixed fold of physicalSite()), its site enumeration and its raw
 * access paths. SpatialBackend (core/accelerator.hh) keeps the
 * paper's per-layer dedicated units; SystolicBackend
 * (core/systolic.hh) time-multiplexes a weight-stationary PE grid
 * across both layers.
 */

#ifndef DTANN_CORE_BACKEND_HH
#define DTANN_CORE_BACKEND_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "ann/mlp.hh"
#include "circuit/sim_counters.hh"
#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "rtl/builder.hh"
#include "rtl/operator_sim.hh"

namespace dtann {

/** Physical dimensions and implementation style of the array. */
struct AcceleratorConfig
{
    int inputs = 90;
    int hidden = 10;
    int outputs = 10;
    FaStyle faStyle = FaStyle::Nand9;

    /** JSON object (embedded in campaign specs and exports). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static AcceleratorConfig fromJson(const class JsonValue &v);

    bool operator==(const AcceleratorConfig &o) const = default;
};

/** Unit kinds that can host defects (paper Section VI-C). */
enum class UnitKind : uint8_t {
    WeightLatch, ///< 16-bit distributed weight storage
    Multiplier,  ///< per-synapse 16x16 Q6.10 multiplier
    AdderStage,  ///< one 24-bit stage of a neuron's adder chain
    Activation,  ///< per-neuron PWL sigmoid unit
};

/**
 * Layers of the array. For the spatial backend this addresses
 * physically distinct unit banks; for pass-multiplexed backends it
 * doubles as the *pass* coordinate (which layer's computation is
 * flowing through a shared unit).
 */
enum class Layer : uint8_t { Hidden, Output };

/** Address of one hardware unit instance. */
struct UnitSite
{
    UnitKind kind;
    Layer layer;
    int neuron;  ///< neuron index within the layer (grid column)
    int index;   ///< synapse index (latch/mult) or stage index (row)

    bool operator<(const UnitSite &o) const;
    bool operator==(const UnitSite &o) const = default;

    /** Human-readable site description. */
    std::string describe() const;
};

/** Observed |faulty - clean| deviations at one faulty unit. */
struct DeviationProbe
{
    RunningStat amplitude; ///< absolute deviation, in value units
};

/**
 * A per-layer activation clamp window (mitigation hook): a pair of
 * comparators after every activation unit of the layer saturates
 * the datapath value into [lo, hi], filtering the exceptional
 * outputs a defective sigmoid unit can emit (the full ±32 Q6.10
 * range) before they reach the next layer. The clean PWL sigmoid
 * lands in [0, 1], so a profiled window never alters a healthy
 * unit.
 */
struct ActivationClamp
{
    bool enabled = false;
    Fix16 lo;
    Fix16 hi;
};

/** Which unit instances are eligible for defects. */
struct SitePool
{
    bool hiddenLayer = true;   ///< synapses into + neurons of hidden
    bool outputLayer = false;
    bool latches = true;
    bool multipliers = true;
    bool adders = true;
    bool activations = true;

    /** Fig 10 pool: everything in the input and hidden layers. */
    static SitePool inputAndHidden();
    /** Fig 11 pool: output-layer adders and activation functions. */
    static SitePool outputCritical();
    /** Every unit in the array. */
    static SitePool all();

    /** JSON object of the six eligibility flags. */
    std::string toJson() const;
    /**
     * Symmetric counterpart of toJson(). Also accepts the named
     * shorthands "all", "input_hidden" and "output_critical" as a
     * JSON string. Throws JsonError on anything else.
     */
    static SitePool fromJson(const class JsonValue &v);

    bool operator==(const SitePool &o) const = default;
};

/** The implemented hardware backends. */
enum class BackendKind : uint8_t {
    Spatial,  ///< paper Fig 3: per-layer dedicated units
    Systolic, ///< weight-stationary PE grid, pass-multiplexed
};

/** Stable lower-case backend name, used in JSON specs. */
const char *backendName(BackendKind kind);

/** Parse a backendName(); returns false on unknown names. */
bool backendFromName(const std::string &name, BackendKind &out);

/** Comma-separated list of valid names, for error messages. */
std::string backendNameList();

/**
 * Functional + defect model of one hardware target.
 *
 * Owns the shared unit netlists, the activation clamp windows and
 * one table of the faulty or bypassed physical units (each with its
 * gate-level simulation, bypass mux and per-pass deviation probes).
 * Both backends run the same two-pass forward (setWeights/
 * forwardBatch; forward() is a one-row batch) over the protected
 * pass-addressed unit operations; a concrete backend describes its
 * units via unitCount() / enumerateSites() and whether its passes
 * share them (physicalSite()).
 */
class HardwareBackend : public ForwardModel
{
  public:
    ~HardwareBackend() override;

    /** Which microarchitecture this is. */
    virtual BackendKind backendKind() const = 0;

    /** The mapped logical topology as a layer stack. */
    DeepTopology topology() const override { return logical; }

    /** The mapped logical topology: one hidden and one output
     *  layer, as the physical array has. */
    const MlpTopology &mapping() const { return logical; }

    /** Physical configuration. */
    const AcceleratorConfig &config() const { return cfg; }

    /** Aggregate simulation work counters over all faulty units. */
    SimCounters simCounters() const override;

    /**
     * Quantize the two-stage stack @p w and write it through the
     * weight latches (the DMA write path): each stage fills the
     * top-left of its layer's physical [neurons][fanin + 1] block,
     * bias synapse last; every other site stores zero. The logical
     * block is written directly; faulty and bypassed latches then
     * store in pass order (hidden pass first, row-major), as one
     * full-array sweep would, and clean padding keeps the zero
     * planInstall() gave it. DESIGN.md §14 has the install.
     */
    void setWeights(const DeepWeights &w) override;

    /**
     * Forward a batch of logical input rows into @p out (one record
     * per row, storage reused): per chunk of rows, the
     * hidden pass, then the output pass, over every physical neuron.
     * A chunk is batchLaneWidth() rows (64/256/512 per the
     * DTANN_LANES knob), or one row when the passes share their
     * units and a faulty simulation is stateful (!batchPure()): a
     * shared stateful unit must see each row's hidden and output
     * operations back to back. Each faulty unit sees a chunk's rows
     * in one OperatorSim::applyLanes() call (one gate-level sweep
     * for a state-free fault set, scalar evaluations in row order
     * otherwise). Bit-identical to one-row calls (forward()) at
     * every lane width, including the per-unit deviation-probe
     * update order.
     */
    void forwardBatchInto(std::span<const std::vector<double>> inputs,
                          std::span<Activations> out) override;

    /** forwardBatchInto() into a fresh record per row. */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /**
     * True when every faulty unit's simulation is a pure function
     * (lane-batchable: state-free faults on feedback-free
     * netlists; vacuously true on a clean array). Wrapper models
     * that hoist weight reloads across input rows (time-mux) may
     * only do so under this predicate — stateful simulations and
     * faulty weight latches depend on the exact per-row operation
     * order. DTANN_NO_BATCH clears it, so those wrappers and the
     * systolic forwardBatch() run one row per chunk.
     */
    bool batchPure() const;

    /**
     * Inject @p count transistor-level defects into one unit
     * instance chosen by the campaign (the unit becomes gate-level
     * simulated). The site folds through physicalSite(), so a pass
     * address of a shared unit hits the same silicon as its
     * canonical address; isFaulty()/bypassUnit()/isBypassed()/probe()
     * fold the same way.
     *
     * @return descriptions of the injected faults
     */
    std::vector<InjectionRecord> injectDefects(const UnitSite &site,
                                               int count, Rng &rng);

    /** Remove all injected defects and probes. */
    void clearDefects();

    /** Physical sites that currently host defects, ascending. */
    std::vector<UnitSite> faultySites() const;

    /**
     * Ground-truth query: does @p site currently host injected
     * defects? Diagnosis code (src/mitigate) scores its inferred
     * defect maps against this.
     */
    bool isFaulty(const UnitSite &site) const;

    /** Number of hardware units of @p kind (for site sampling). */
    virtual int unitCount(UnitKind kind) const = 0;

    /**
     * Enumerate every unit instance this backend exposes that
     * @p pool makes eligible, in a fixed deterministic order.
     * Shared by the defect injector (sampling) and the BIST
     * diagnosis harness (exhaustive per-unit probing).
     */
    virtual std::vector<UnitSite>
    enumerateSites(const SitePool &pool) const = 0;

    /** @name BIST scan access (src/mitigate diagnosis harness)
     *
     * Drive a test vector through one unit instance and observe its
     * raw response, modelling a scan-path that isolates the unit
     * from the array datapath. Faulty units respond through their
     * gate-level simulation (including defect-induced memory), clean
     * units respond with native fixed-point arithmetic. Probing
     * updates the unit's deviation probe like any other use.
     * @{ */
    Fix16 bistMul(Layer layer, int neuron, int synapse, Fix16 w,
                  Fix16 x);
    Acc24 bistAdd(Layer layer, int neuron, int stage, Acc24 a, Acc24 b);
    Fix16 bistAct(Layer layer, int neuron, Fix16 x);
    Fix16 bistLatchStore(Layer layer, int neuron, int synapse, Fix16 d);
    /** @} */

    /** @name Defect bypass (src/mitigate mitigation strategies)
     *
     * A bypassed unit is disconnected from the datapath by a small
     * output mux (fault-aware pruning): a bypassed multiplier or
     * weight latch contributes a zero product, a bypassed adder
     * stage passes its accumulator input through unchanged (dropping
     * that stage's product), and a bypassed activation unit emits a
     * constant zero (silencing the neuron). The bypass takes
     * precedence over any injected defect at the unit.
     * @{ */
    void bypassUnit(const UnitSite &site);
    void clearBypasses();
    bool isBypassed(const UnitSite &site) const;
    /** Bypassed physical sites, ascending. */
    std::vector<UnitSite> bypassedSites() const;
    /** @} */

    /** @name Activation clamping (src/mitigate ClampActivations)
     *
     * The clamp applies on the *datapath* only — after the
     * activation unit's output, before the value feeds the next
     * layer or leaves the array — so the BIST scan path still
     * observes raw (unclamped) unit responses and diagnosis stays
     * honest. Clamping runs in row order after each unit, so every
     * lane width clamps identically.
     * @{ */
    void setActivationClamp(Layer layer, Fix16 lo, Fix16 hi);
    void clearActivationClamps();
    const ActivationClamp &activationClamp(Layer layer) const;
    /** Datapath values saturated by the clamps since the last
     *  clearActivationClamps(). */
    uint64_t clampHits() const { return clampHitCount; }
    /** @} */

    /**
     * Deviation record of the physical unit @p site folds onto
     * (empty stats when clean): its hidden-pass stream merged with
     * its output-pass stream, in that order, into an empty stat. A
     * unit that serves one pass returns that stream bit for bit.
     */
    DeviationProbe probe(const UnitSite &site) const;

    /** Reset all deviation probes. */
    void clearProbes();

    /** Shared netlists (also used by the cost model). @{ */
    const Netlist &multiplierNetlist() const { return *multNl; }
    const Netlist &adderNetlist() const { return *addNl; }
    const Netlist &latchNetlist() const { return *latchNl; }
    const Netlist &activationNetlist() const { return *actNl; }
    /** The netlist instantiated per unit of @p kind. */
    const Netlist &unitNetlist(UnitKind kind) const;
    /** @} */

  protected:
    /**
     * @param config physical array dimensions
     * @param logical task network mapped onto the array (must fit)
     * @param shared_passes whether both passes run on one set of
     *        units (see physicalSite())
     */
    HardwareBackend(const AcceleratorConfig &config, MlpTopology logical,
                    bool shared_passes);

    /**
     * Map a pass-addressed operation (kind, pass layer, neuron,
     * operand index) to the physical unit that executes it: the
     * identity on an array with one dedicated unit per (layer,
     * neuron, index), the spatial dataflow; {kind, Hidden, neuron,
     * index} when the passes share their units. Fault, bypass and
     * injection state belongs to the physical unit; each unit keeps
     * one deviation stream per pass, so the order-dependent Welford
     * updates stay per-pass row-ordered (and therefore identical
     * between one-row and lane-batched calls at any lane width).
     */
    UnitSite
    physicalSite(const UnitSite &pass_site) const
    {
        if (!sharedPasses)
            return pass_site;
        return {pass_site.kind, Layer::Hidden, pass_site.neuron,
                pass_site.index};
    }

    /**
     * One non-clean physical unit: the gate-level simulation of its
     * defects (null when it only is bypassed), whether its bypass
     * mux is on, and one deviation probe per pass (indexed by the
     * pass Layer) of the operations its simulation ran.
     */
    struct Unit
    {
        UnitSite site;
        std::unique_ptr<OperatorSim> sim;
        bool bypassed = false;
        DeviationProbe probes[2];
    };

    /** The unit that executes pass address (@p kind, @p layer,
     *  @p neuron, @p index); units[0], the clean unit, when it is
     *  neither faulty nor bypassed. */
    const Unit &
    slot(UnitKind kind, Layer layer, int neuron, int index) const
    {
        return units[slotOf[slotIndex(kind, layer, neuron, index)]];
    }

    /**
     * True when pass address (@p kind, @p layer, @p neuron,
     * @p index) executes on the clean unit: its physical unit is
     * neither faulty nor bypassed.
     */
    bool
    unitClean(UnitKind kind, Layer layer, int neuron, int index) const
    {
        return slotOf[slotIndex(kind, layer, neuron, index)] == 0;
    }

    /**
     * The slot-table row of (@p kind, @p layer, @p neuron): entry i
     * is zero exactly when unitClean() holds for operand i. One
     * range check per row lets the per-synapse loops test
     * cleanliness with a plain load.
     */
    const uint16_t *
    slotRow(UnitKind kind, Layer layer, int neuron) const
    {
        return &slotOf[slotIndex(kind, layer, neuron, 0)];
    }

    /** Synapses per neuron of @p layer, the bias synapse excluded. */
    int
    fanIn(Layer layer) const
    {
        return layer == Layer::Hidden ? cfg.inputs : cfg.hidden;
    }

    /** Apply @p layer's clamp window to one datapath value. */
    Fix16 clampValue(Layer layer, Fix16 x);

    /**
     * Write the full weight row of physical neuron @p neuron of
     * @p layer through its latches (fanIn(layer) + 1 words, bias
     * last): the raw access the time-multiplexing wrappers load
     * with. A clean latch holds its word as written, any other goes
     * through unitLatchStore().
     */
    void loadPhysicalRow(Layer layer, int neuron,
                         std::span<const Fix16> weights);

    /**
     * The stored words of (@p layer, @p neuron) were rewritten
     * outside setWeights(): rescan the row for its last non-zero
     * word before the bias, the bound neuronSumLanes() stops at.
     */
    void storedRowChanged(Layer layer, int neuron);

    /**
     * Run @p layer over <= kMaxLanes input rows (one pointer each):
     * neuronLanes() for every physical neuron. The hidden pass
     * leaves every lane's pre-activation sums in hidSumsLanes.
     */
    void runLayerLanes(Layer layer, const std::vector<const Fix16 *> &in,
                       const std::vector<Fix16 *> &out, size_t lanes);

    /**
     * Physical neuron @p neuron of @p layer over <= kMaxLanes rows:
     * its multiply/add chain over its stored weight row @p w into
     * @p acc, then its activation unit and @p layer's clamp into
     * out[l][neuron]. A neuron whose multipliers, adder stages and
     * activation unit are all clean is a constant neuron when its
     * stored words below the bias are all zero: it computes f(bias)
     * for every row, and its cached sum and output are written per
     * lane (DESIGN.md §14 "Constant neurons"). Otherwise it is a
     * clean neuron: per lane, one Fix16::hwDot() over the words
     * below its bound plus the bias product, then the clean PWL
     * activation inline ("Clean neurons"). Any other (mixed) neuron
     * runs neuronSumLanes(), then the clean PWL activation inline or
     * the unit through unitActLanes(). runLayerLanes() has rebuilt a
     * stale plan first. Virtual only so tests can compare against
     * the all-units path.
     */
    virtual void neuronLanes(Layer layer, int neuron, const Fix16 *w,
                             const std::vector<const Fix16 *> &in,
                             Acc24 *acc, const std::vector<Fix16 *> &out,
                             size_t lanes);

    /** One latch write (routes through the sim when faulty). */
    Fix16 unitLatchStore(Layer layer, int neuron, int synapse, Fix16 d);

    /** Per-unit operations over <= kMaxLanes rows at a time (route
     *  through the sim when faulty; the BIST scans are one-lane
     *  calls). @{ */
    void unitMulLanes(Layer layer, int neuron, int synapse, Fix16 w,
                      const Fix16 *x, Fix16 *out, size_t lanes);
    void unitAddLanes(Layer layer, int neuron, int stage, Acc24 *acc,
                      const Acc24 *b, size_t lanes);
    void unitActLanes(Layer layer, int neuron, const Fix16 *x,
                      Fix16 *out, size_t lanes);
    /** @} */

    AcceleratorConfig cfg;
    MlpTopology logical;

    /** Stored physical weights (post-latch values). */
    std::vector<Fix16> hidW; // [hidden][inputs+1]
    std::vector<Fix16> outW; // [outputs][hidden+1]

    /** Hidden pre-activation sums of the last runLayerLanes() pass,
     *  [lane * hidden + neuron]. */
    std::vector<Acc24> hidSumsLanes;

    /** Shared unit netlists. */
    std::shared_ptr<const Netlist> multNl;
    std::shared_ptr<const Netlist> addNl;
    std::shared_ptr<const Netlist> latchNl;
    std::shared_ptr<const Netlist> actNl;

    /** Per-layer activation clamp windows (Hidden, Output). */
    ActivationClamp clamps[2];
    uint64_t clampHitCount = 0;

  private:
    /** Both passes run on one set of units (see physicalSite()). */
    const bool sharedPasses;

    /** Per-lane scratch of the neuron chain and the unit operations'
     *  packed words, kMaxLanes each, sized once so a one-row call
     *  clears no whole plane. */
    std::vector<Fix16> laneX, laneP;
    std::vector<Acc24> laneAcc, laneAddend;
    std::vector<uint64_t> laneIn, laneOut;
    /** forwardBatch() scratch: one chunk's physical rows and their
     *  per-lane pointers, reused across calls. */
    std::vector<Fix16> batchIn, batchHid, batchOut;
    std::vector<const Fix16 *> batchInPtr, batchHidIn;
    std::vector<Fix16 *> batchHidOut, batchOutPtr;
    /** setWeights() scratch: both logical stages quantized, hidden
     *  stage first. */
    std::vector<Fix16> stageWords;

    /**
     * A faulty or bypassed latch the install writes through
     * unitLatchStore(): its pass address, its word's offset in
     * hidW/outW, and the offset of its logical weight in the layer's
     * stage array (-1 at a padding site, which stores zero).
     */
    struct LatchReplay
    {
        Layer layer;
        int neuron;
        int index;
        size_t dst;
        ptrdiff_t src;
    };

    /** Zero hidW and outW and list the non-clean latches in pass
     *  order (hidden pass first, row-major, padding included). */
    void planInstall();

    /**
     * One neuron's multiply/add chain over <= kMaxLanes rows into
     * @p acc: multiplier i takes weight @p w[i] and input i (the
     * bias synapse, i == fanIn(), takes one) and adder stage i - 1
     * folds product i into the accumulator. It walks the neuron's
     * run plan: each cached run of synapses whose multiplier and
     * adder stage are both unitClean() runs natively through
     * Fix16::hwDot() and stops at the row's last non-zero stored
     * word before the bias (DESIGN.md §14); every synapse between
     * runs goes through unitMulLanes()/unitAddLanes().
     */
    void neuronSumLanes(Layer layer, int neuron, const Fix16 *w,
                        const std::vector<const Fix16 *> &in, Acc24 *acc,
                        size_t lanes);

    /** A maximal run [begin, end) of synapses >= 1 whose
     *  multiplier and adder stage are both clean. */
    struct CleanRun
    {
        int begin;
        int end;
    };

    /** Row of (@p layer, @p neuron) in the per-neuron arrays:
     *  hidden neurons first, then output neurons. */
    size_t
    neuronRow(Layer layer, int neuron) const
    {
        return static_cast<size_t>(
            (layer == Layer::Hidden ? 0 : cfg.hidden) + neuron);
    }

    /** Rebuild cleanRuns and neuronClean from the slot table. */
    void planRuns();

    /** What a constant neuron computes from its stored bias word:
     *  its pre-activation sum and its (unclamped) output. */
    struct ConstNeuron
    {
        Fix16 bias;
        Acc24 sum;
        Fix16 out;
    };

    /** The sum and output of a constant neuron storing @p bias. */
    static ConstNeuron constNeuron(Fix16 bias);

    /** Every neuron's clean runs in order, neuronRow() by
     *  neuronRow(); neuron r's are [runStart[r], runStart[r + 1]).
     *  Valid unless runsStale. */
    std::vector<CleanRun> cleanRuns;
    std::vector<uint32_t> runStart;
    /** Set whenever a unit enters or leaves the table (where
     *  installStale is): runLayerLanes() then re-plans. */
    bool runsStale = true;
    /** Per neuronRow(): every multiplier, adder stage and the
     *  activation unit are unitClean(). Valid unless runsStale. */
    std::vector<uint8_t> neuronClean;
    /** Per neuronRow(): every stored word from here up to the bias
     *  is zero (an upper bound on the last non-zero one). */
    std::vector<int> nonZeroEnd;
    /** Per neuronRow(): the constant-neuron result for the bias word
     *  last seen there, recomputed when the stored bias changes. */
    std::vector<ConstNeuron> constNeurons;

    /** Non-clean latches in install order; valid unless
     *  installStale. */
    std::vector<LatchReplay> latchReplay;
    /** Set whenever a unit enters or leaves the table and by every
     *  raw row load: the next install re-plans (a latch changed
     *  state, or a clean padding word may no longer be zero). */
    bool installStale = true;

    /**
     * Dense pass-address table, [kind][layer][neuron][index], of
     * indices into units (0: the clean unit). Every layer spans
     * max(hidden, outputs) neurons and, per kind, the widest operand
     * index of either pass (activations: 1), so both backends' pass
     * addresses and the systolic grid's physical addresses (BIST
     * scans) all have an entry. Every pass address that folds onto
     * a non-clean unit holds that unit's index. Two bytes per
     * address keep the table cache-resident on the clean path.
     */
    std::vector<uint16_t> slotOf;
    /** [0] is the clean unit; the rest are the faulty or bypassed
     *  physical units, in the order they entered. */
    std::vector<Unit> units;
    int slotNeurons = 0;
    int slotIndices[4] = {};
    size_t slotBase[8] = {};

    size_t
    slotIndex(UnitKind kind, Layer layer, int neuron, int index) const
    {
        size_t k = static_cast<size_t>(kind);
        dtann_assert(neuron >= 0 && neuron < slotNeurons && index >= 0 &&
                         index < slotIndices[k],
                     "unit address out of range");
        return slotBase[2 * k + static_cast<size_t>(layer)] +
            static_cast<size_t>(neuron * slotIndices[k] + index);
    }

    /** The unit of pass address (@p kind, @p layer, @p neuron,
     *  @p index), for the unit operations to update. */
    Unit &
    unitAt(UnitKind kind, Layer layer, int neuron, int index)
    {
        return units[slotOf[slotIndex(kind, layer, neuron, index)]];
    }

    /**
     * The unit of physical site @p site, entered into the table if
     * it is clean: every pass address that folds onto it (both
     * passes' addresses when the passes share units) then points
     * at it.
     */
    Unit &enterUnit(const UnitSite &site);

    /** Point every pass address of units[@p ix] at entry @p ix. */
    void indexUnit(size_t ix);

    /** Drop the units that are neither faulty nor bypassed any more
     *  and re-index the rest (after a clear). */
    void compactUnits();
};

/**
 * Construct the backend for @p kind with the given physical
 * configuration and mapped task. The campaign layer funnels every
 * backend construction through here so a config's `backend` field
 * is honored uniformly.
 */
std::unique_ptr<HardwareBackend>
makeBackend(BackendKind kind, const AcceleratorConfig &config,
            MlpTopology logical);

} // namespace dtann

#endif // DTANN_CORE_BACKEND_HH
