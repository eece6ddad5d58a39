/**
 * @file
 * Weight-stationary systolic hardware backend.
 *
 * The dominant post-2012 accelerator organization (1802.04657,
 * 2006.03616): a grid of processing elements, each holding one
 * stationary weight in its own latch, multiplying the input
 * streaming through it and folding the product into the partial
 * sum flowing down its column. One activation unit sits at each
 * column foot.
 *
 * Mapping of the paper's 2-layer MLP: the grid has
 * max(inputs, hidden) + 1 rows (one per synapse, bias row last)
 * and max(hidden, outputs) columns (one per neuron). The *hidden
 * pass* streams the input row through columns 0..hidden-1 using
 * rows 0..inputs; the stationary weights are then reloaded and the
 * *output pass* streams the hidden activations through columns
 * 0..outputs-1 using rows 0..hidden. Both passes therefore
 * time-multiplex the same physical PEs — the defect model's key
 * difference from the spatial array: a faulty PE at grid (r, c)
 * corrupts synapse r of hidden neuron c AND synapse r of output
 * neuron c, and a faulty column-foot activation unit corrupts a
 * hidden neuron and an output neuron at once.
 *
 * Clean arithmetic is schedule-for-schedule identical to the
 * spatial array (same multiply/add chain per neuron, same
 * quantization), so a defect-free systolic forward pass is
 * bit-identical to the spatial backend — the property the
 * cross-backend differential suite pins. Defective behaviour
 * diverges exactly where the microarchitectures differ.
 */

#ifndef DTANN_CORE_SYSTOLIC_HH
#define DTANN_CORE_SYSTOLIC_HH

#include "core/backend.hh"
#include "rtl/pe_cell.hh"

namespace dtann {

/**
 * Weight-stationary PE-grid backend.
 *
 * Physical unit addressing is Layer::Hidden-canonical: grid PE
 * (row r, column c) is site {kind, Hidden, neuron = c, index = r}.
 * The backend declares its passes shared, so physicalSite() folds
 * both passes onto those addresses and each PE's table entry is
 * reached from its hidden- and output-pass addresses alike. Each PE
 * keeps one deviation stream per pass and probe() merges the two
 * deterministically (Chan's update), so one-row and lane-batched
 * evaluation remain bit-identical. Because a stateful faulty PE
 * must see each row's hidden and output operations back to back,
 * forwardBatch() chunks several rows only while every faulty
 * simulation is a pure function.
 */
class SystolicBackend : public HardwareBackend
{
  public:
    SystolicBackend(const AcceleratorConfig &config, MlpTopology logical);

    BackendKind backendKind() const override
    {
        return BackendKind::Systolic;
    }

    /** Grid height: one row per synapse of the widest pass (bias
     *  row last). */
    int gridRows() const { return rows; }
    /** Grid width: one column per neuron of the widest pass. */
    int gridCols() const { return cols; }

    /** PE cell description (netlists + transistor census) for the
     *  cost model. */
    const PeCell &peCell() const { return cell; }

    int unitCount(UnitKind kind) const override;

    /**
     * Physical PE-grid sites in fixed column-major order. A site is
     * eligible when any pass the pool admits uses it: the hidden
     * pass flag covers the PEs the input->hidden schedule touches,
     * the output pass flag those of the hidden->output schedule
     * (shared PEs are eligible under either flag, listed once).
     */
    std::vector<UnitSite>
    enumerateSites(const SitePool &pool) const override;

  private:
    int rows;
    int cols;
    PeCell cell;

    /** Does either eligible pass use this grid unit? */
    bool usedBy(const SitePool &pool, UnitKind kind, int r,
                int c) const;
};

} // namespace dtann

#endif // DTANN_CORE_SYSTOLIC_HH
