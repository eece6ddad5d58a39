/**
 * @file
 * Gate-level fault-cone closure (tests only).
 *
 * Two linear passes over every gate, a forward one for the fanout
 * cone and a descending one for its fan-in support, then a separate
 * pass that folds the active gates into cell steps. It shares no
 * code with computeFaultCone()'s cell closure, so
 * FaultCone.CellClosureMatchesGateClosure can hold the production
 * steps, counts and masks to it, and ReferenceEvaluator sweeps its
 * active gates. Also two fault-set helpers the circuit tests share.
 */

#ifndef DTANN_TESTS_CIRCUIT_REFERENCE_CONE_HH
#define DTANN_TESTS_CIRCUIT_REFERENCE_CONE_HH

#include <cstdint>
#include <vector>

#include "circuit/faults.hh"
#include "circuit/netlist.hh"

namespace dtann {

/** The gate-level cone of one (netlist, fault set). */
struct ReferenceCone
{
    /** Same preconditions as FaultCone::valid. */
    bool valid = false;
    /** The fanout cone plus its fan-in support, ascending. */
    std::vector<uint32_t> activeGates;
    /** Bit o set when primary output o is a cone net. */
    uint64_t outputMask = 0;
    /** Gates in the fanout cone proper. */
    size_t coneSize = 0;
};

/** The cone of @p faults over @p nl, gate by gate. */
ReferenceCone referenceFaultCone(const Netlist &nl, const FaultSet &faults);

/**
 * The steps of a pruned sweep over @p active (ascending) under
 * @p faults: each eligible cell that has active gates and carries no
 * fault is one entry kCellStep | group, placed where its first
 * active gate was; every other active gate is its own entry. On a
 * netlist without a cell index, the active gates.
 */
std::vector<uint32_t> referencePrunedSteps(
    const std::vector<uint32_t> &active, const FaultSet &faults,
    const Netlist &nl);

/** @p nl rebuilt gate for gate: same nets, gates, groups and bus
 *  order, but hand-built, so it has no cell index. */
Netlist bareCopy(const Netlist &nl);

/** Clean table of gate @p gi with entry @p entry (mod the table
 *  size) flipped: a state-free override. */
GateFunction flipped(const Netlist &nl, uint32_t gi, uint32_t entry);

} // namespace dtann

#endif // DTANN_TESTS_CIRCUIT_REFERENCE_CONE_HH
