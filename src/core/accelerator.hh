/**
 * @file
 * The spatially expanded hardware ANN accelerator (paper Fig 3).
 *
 * Physical structure: a fully connected 90-10-10 array (config-
 * urable). Every synapse has its own 16-bit weight latch and its
 * own Q6.10 multiplier; every neuron has a 24-bit ripple adder
 * chain and a PWL activation unit. There is no central weight
 * memory and no read decoding logic — the paper's key design point.
 *
 * Defects are injected per unit instance: the faulty unit is
 * replaced by a gate-level simulation of its netlist with
 * reconstructed transistor-level fault behaviour, while all clean
 * units execute native fixed-point arithmetic (bit-identical to the
 * netlists). This mirrors the paper's software methodology
 * ("a software function is called to perform that operator in
 * place of the native operator").
 *
 * A logical task network (e.g. 30-10-2 for breast) is mapped onto
 * the top-left corner of the physical array; unused physical
 * synapses hold weight 0. Defects are sampled over the *physical*
 * structure, so they may land in unused regions — as on real
 * silicon.
 *
 * The fault-hosting machinery (shared netlists, the unit table of
 * injected defects, bypasses and probes, clamps, BIST scan) lives in
 * HardwareBackend (core/backend.hh); this file contributes the
 * spatial dataflow: one dedicated unit per (layer, neuron, synapse)
 * operation, so no unit is shared between the passes.
 */

#ifndef DTANN_CORE_ACCELERATOR_HH
#define DTANN_CORE_ACCELERATOR_HH

#include "core/backend.hh"

namespace dtann {

/**
 * The paper's spatially expanded array: every pass-addressed
 * operation has its own dedicated hardware unit (the passes share
 * none, so physicalSite() is the identity), so a defect corrupts
 * exactly one (layer, neuron, operand) slot of the computation.
 */
class SpatialBackend : public HardwareBackend
{
  public:
    /**
     * @param config physical array dimensions
     * @param logical task network mapped onto the array (must fit)
     */
    SpatialBackend(const AcceleratorConfig &config, MlpTopology logical);

    BackendKind backendKind() const override
    {
        return BackendKind::Spatial;
    }

    /** Fixed-point forward of one row on the physical array
     *  (padded input): a one-lane run of both layers. */
    std::vector<Fix16> forwardFix(std::span<const Fix16> physical_input);

    /** @name Raw physical access (partial time-multiplexing) @{ */

    /**
     * Write a full weight row of physical hidden neuron
     * @p phys_neuron through the latch path (inputs + 1 values,
     * bias last).
     */
    void loadPhysicalHiddenRow(int phys_neuron,
                               std::span<const Fix16> weights);

    /**
     * Write a full weight row of physical output neuron
     * @p phys_neuron through the latch path (hidden + 1 values,
     * bias last).
     */
    void loadPhysicalOutputRow(int phys_neuron,
                               std::span<const Fix16> weights);

    /**
     * Run only the physical hidden layer over <= kMaxLanes input
     * rows with the currently loaded weights (one weight load serves
     * every lane — the time-multiplexing engine). Activations land
     * in @p out (one pointer per lane, cfg.hidden values each);
     * per-lane pre-activation sums stay readable via
     * hiddenSumsLanes() (the time-multiplexing output latches).
     */
    void runHiddenLayerLanes(const std::vector<const Fix16 *> &in,
                             const std::vector<Fix16 *> &out,
                             size_t lanes);

    /** Per-lane pre-activation sums of the last hidden-layer run
     *  (runHiddenLayerLanes() or the last chunk of forwardBatch()):
     *  lane l, neuron n at [l * hidden + n]. */
    const std::vector<Acc24> &hiddenSumsLanes() const
    {
        return hidSumsLanes;
    }

    /** @} */

    /** Number of hardware units of @p kind (for site sampling). */
    int unitCount(UnitKind kind) const override;

    /** Eligible units in a fixed (layer, neuron, unit) order. */
    std::vector<UnitSite>
    enumerateSites(const SitePool &pool) const override;
};

/**
 * The paper's array is the default hardware target; most of the
 * codebase (wrappers, trainers, benches) predates the backend
 * split and keeps addressing it by this name.
 */
using Accelerator = SpatialBackend;

} // namespace dtann

#endif // DTANN_CORE_ACCELERATOR_HH
