/**
 * @file
 * Fault-cone analysis for pruned faulty-netlist evaluation.
 *
 * Only the fanout cone of the faulty gates can differ from the
 * clean circuit; every other net is bit-identical to the defect-free
 * evaluation. A pruned evaluator therefore needs to simulate just
 * the cone plus its transitive fan-in support (the clean gates whose
 * values the cone reads), and can splice the remaining output bits
 * from a native (fixed-point) model of the clean operator. The cone
 * proper is small, but its support is not: for one random transistor
 * defect in the 16-bit multiplier the cone averages 419 of 2,604
 * gates, and cone plus support 2,487 (95 %). So the closure runs over
 * bit-cells (CellIndex): a clean eligible cell closes as one unit
 * through its reach table, and only faulty and ineligible cells are
 * walked gate by gate (DESIGN.md §9 "Cell closure").
 */

#ifndef DTANN_CIRCUIT_FAULT_CONE_HH
#define DTANN_CIRCUIT_FAULT_CONE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/cell_index.hh"
#include "circuit/faults.hh"
#include "circuit/netlist.hh"

namespace dtann {

/**
 * Native model of a clean operator: maps packed primary-input bits
 * to packed primary-output bits, bit-identical to evaluating the
 * defect-free netlist (e.g. a fixed-point multiply for a multiplier
 * netlist). Pruned evaluators splice the output bits outside the
 * fault cone from this function instead of simulating the gates
 * that produce them.
 */
using CleanFn = std::function<uint64_t(uint64_t)>;

/** Result of the cone analysis over one (netlist, fault set). */
struct FaultCone
{
    /**
     * True when pruned evaluation is applicable: the netlist is
     * feedback-free (gate order is topological, one sweep settles),
     * has at most 64 primary outputs (so the affected set packs into
     * an output mask) and at least one fault was given.
     */
    bool valid = false;

    /**
     * The pruned sweep, in gate (= topological) order, over the
     * active gates: the fanout cone of the faulty gates plus the
     * cone's transitive fan-in support. Each eligible cell that has
     * active gates and carries no fault is one entry kCellStep |
     * group, placed at its gate range; every other active gate is
     * its own entry, the gate index.
     */
    std::vector<uint32_t> steps;

    /** Number of active gates the steps stand for: what one pruned
     *  sweep charges, scalar and lanes. */
    size_t activeCount = 0;

    /** Bit o set when primary output o lies inside the fanout cone
     *  (only these bits may differ from the clean operator). */
    uint64_t outputMask = 0;

    /** Number of gates in the fanout cone proper (a subset of the
     *  active gates; for diagnostics). */
    size_t coneSize = 0;
};

/**
 * Compute the fault cone of @p faults over @p nl.
 *
 * Returns an invalid cone (valid == false) when the fault set is
 * empty, the netlist has feedback, or it has more than 64 primary
 * inputs or outputs; callers then evaluate the full netlist. A
 * netlist without a cell index closes as one ineligible cell, gate
 * by gate.
 */
FaultCone computeFaultCone(const Netlist &nl, const FaultSet &faults);

} // namespace dtann

#endif // DTANN_CIRCUIT_FAULT_CONE_HH
