/**
 * @file
 * Weight-stationary processing element (PE) cell.
 *
 * The systolic backend's grid cell, assembled from the same
 * operator library the spatial array instantiates per synapse: a
 * 16-bit weight latch holding the stationary weight, a Q6.10
 * signed multiplier, and a 24-bit ripple adder stage that folds the
 * product into the partial sum flowing down the column. Activation
 * units sit at the column feet and are not part of the cell.
 *
 * The cell exists as an rtl-level grouping so the systolic cost
 * accounting and defect weighting can census a PE's transistors
 * from the same netlists the fault injector perturbs — the defect
 * model and the area model stay one structure.
 */

#ifndef DTANN_RTL_PE_CELL_HH
#define DTANN_RTL_PE_CELL_HH

#include <memory>

#include "rtl/builder.hh"

namespace dtann {

/** Transistor census of one weight-stationary PE cell. */
struct PeCellCensus
{
    size_t latchTransistors = 0;
    size_t multiplierTransistors = 0;
    size_t adderTransistors = 0;

    /** Whole-cell transistor count. */
    size_t total() const
    {
        return latchTransistors + multiplierTransistors +
            adderTransistors;
    }
};

/**
 * One weight-stationary PE: the three operator netlists a grid
 * cell instantiates. Rows of PEs share nothing — as in the spatial
 * array, there is no central weight memory; the stationary weight
 * lives in the cell's own latch.
 */
class PeCell
{
  public:
    /** The cell's netlists in @p style (the shared
     *  operatorNetlists() set). */
    explicit PeCell(FaStyle style);

    /** 16-bit stationary-weight latch register. */
    const Netlist &latchNetlist() const { return *latchNl; }
    /** 16x16 signed Q6.10 multiplier. */
    const Netlist &multiplierNetlist() const { return *multNl; }
    /** 24-bit partial-sum adder stage. */
    const Netlist &adderNetlist() const { return *addNl; }

    /** Per-operator and whole-cell transistor counts. */
    PeCellCensus census() const;

  private:
    std::shared_ptr<const Netlist> latchNl;
    std::shared_ptr<const Netlist> multNl;
    std::shared_ptr<const Netlist> addNl;
};

} // namespace dtann

#endif // DTANN_RTL_PE_CELL_HH
