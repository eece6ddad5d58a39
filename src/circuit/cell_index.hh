/**
 * @file
 * Bit-cell index of a built operator netlist.
 *
 * Every rtl builder tags the gates of one 1-bit cell (a partial
 * product, a full adder, a decoder line) with one Gate::group. The
 * index records, once per netlist, each group's gate range, the
 * nets it reads from outside (external inputs) and the nets read
 * outside it (external outputs). A group that is contiguous in gate
 * order, has at most 4 external inputs and 2 external outputs and no
 * feedback is *eligible*: its clean behaviour is one 16-entry truth
 * table per output, tabulated here from its gates. The cone-pruned
 * scalar program and lane sweep evaluate each clean eligible cell
 * as one table op (DESIGN.md §9 "Cell ops"), and the fault cone
 * closes over it as one unit through its reach table (CellReach).
 *
 * The index also lays out the fault sites per group, which the
 * injector samples from ("a bit cell, then a transistor in it").
 *
 * NetlistBuilder::take() attaches the index; it is never written
 * afterwards, so threads share it without locks. Hand-built
 * netlists carry none and keep gate ops.
 */

#ifndef DTANN_CIRCUIT_CELL_INDEX_HH
#define DTANN_CIRCUIT_CELL_INDEX_HH

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.hh"

namespace dtann {

/** One bit-cell (the gates of one Gate::group). */
struct Cell
{
    uint32_t firstGate = 0; ///< lowest gate index of the group
    uint32_t endGate = 0;   ///< one past the highest gate index
    uint32_t numGates = 0;  ///< gates carrying the group tag
    uint16_t numIn = 0;     ///< external inputs
    uint16_t numOut = 0;    ///< external outputs
    /** A gate reads a net no earlier gate drives (a latch loop). */
    bool feedback = false;
    /** Contiguous, <= 4 inputs, <= 2 outputs and no feedback. */
    bool eligible = false;
    /** The first 4 external inputs, in order of first read; table
     *  index bit i is in[i]. */
    NetId in[4] = {invalidNet, invalidNet, invalidNet, invalidNet};
    /** The first 2 external outputs, in driver order. */
    NetId out[2] = {invalidNet, invalidNet};
    /** Eligible cells: clean value of out[o] over a 4-bit index,
     *  the bits at and above numIn cleared (as gateTable()). */
    uint16_t table[2] = {0, 0};
    /** Eligible cells: its reach table (CellIndex::reach()), shared
     *  by every cell of the same shape (gate kinds and wiring). */
    uint32_t reach = 0;

    /** True when the gates fill [firstGate, endGate) alone. */
    bool contiguous() const { return endGate - firstGate == numGates; }
};

/** Marks a cell entry (the low bits are the group) in a step list. */
inline constexpr uint32_t kCellStep = 0x80000000u;

/**
 * What a fault cone takes of one clean eligible cell, given which of
 * its external inputs are cone nets (the cone-input mask, bit i for
 * in[i]) and which of its external outputs a simulated gate outside
 * it reads (the needed-output mask, bit o for out[o]). The gate-level
 * closure restricted to the cell, tabulated once per netlist.
 */
struct CellReach
{
    uint8_t coneOut = 0;   ///< outputs in the cone (bit o: out[o])
    uint8_t needIn = 0;    ///< inputs the active gates read (bit i)
    uint16_t coneGates = 0; ///< gates in the fanout cone
    uint16_t active = 0;   ///< gates simulated: the cone and its support
};

/** Per-group cells and fault sites of one netlist. */
class CellIndex
{
  public:
    /** Index @p nl (groups 0 .. numGroups() - 1). */
    explicit CellIndex(const Netlist &nl);

    /** Number of groups. */
    size_t numCells() const { return cells.size(); }

    /** The cell of group @p group. */
    const Cell &cell(size_t group) const { return cells[group]; }

    /** All cells, indexed by group. */
    const Cell *data() const { return cells.data(); }

    /** Groups with at least one fault site (gates with transistors),
     *  ascending by tag. */
    size_t numSiteGroups() const { return siteStart.size() - 1; }

    /** The fault sites of site group @p k, in gate order. */
    std::span<const uint32_t>
    siteGroup(size_t k) const
    {
        return {siteGates.data() + siteStart[k],
                siteStart[k + 1] - siteStart[k]};
    }

    /**
     * The netlist in gate order as closure units: each eligible
     * cell is one entry kCellStep | group, each gate of an
     * ineligible cell its own entry, the gate index. The steps of a
     * sweep over every gate with no faulty cell.
     */
    std::span<const uint32_t> units() const { return unitList; }

    /**
     * The closure of eligible cell @p c under cone-input mask
     * @p cone_in and needed-output mask @p need_out (CellReach).
     * coneOut and coneGates depend on @p cone_in alone.
     */
    const CellReach &
    reach(const Cell &c, uint32_t cone_in, uint32_t need_out) const
    {
        return reaches[c.reach * 64 + cone_in * 4 + need_out];
    }

  private:
    std::vector<Cell> cells;
    std::vector<uint32_t> unitList;
    /** 64 entries per cell shape, [cone_in * 4 + need_out]. */
    std::vector<CellReach> reaches;
    std::vector<uint32_t> siteGates;
    std::vector<uint32_t> siteStart;
};

} // namespace dtann

#endif // DTANN_CIRCUIT_CELL_INDEX_HH
