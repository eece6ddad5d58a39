/**
 * @file
 * Structural gate netlist.
 *
 * A Netlist is a set of nets and gates. Each net is driven by at
 * most one gate; primary inputs are undriven nets. Feedback loops
 * are allowed (cross-coupled latches); the Evaluator resolves them
 * by relaxation.
 *
 * Gates carry a "group" tag identifying the 1-bit cell they belong
 * to (e.g., full-adder cell k of an array multiplier). The paper's
 * defect-injection procedure first picks a random bit cell, then a
 * random transistor within it, so groups are the first-level
 * sampling unit.
 */

#ifndef DTANN_CIRCUIT_NETLIST_HH
#define DTANN_CIRCUIT_NETLIST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/gate.hh"

namespace dtann {

/** Index of a net within a Netlist. */
using NetId = uint32_t;

/** Sentinel for "no net". */
constexpr NetId invalidNet = UINT32_MAX;

/** One gate instance. */
struct Gate
{
    GateKind kind;
    uint16_t group;     ///< bit-cell tag for defect sampling
    NetId in[4];
    NetId out;

    /** Number of connected inputs. */
    int arity() const { return gateArity(kind); }
};

class CellIndex;

/** Structural netlist of CMOS primitive gates. */
class Netlist
{
  public:
    /** Create a fresh undriven net. */
    NetId addNet();

    /**
     * Add a gate driving a fresh net.
     *
     * @param kind gate kind
     * @param ins input nets (size must equal the kind's arity)
     * @return the gate's output net
     */
    NetId addGate(GateKind kind, const std::vector<NetId> &ins);

    /**
     * Add a gate driving an existing net (needed for feedback
     * structures such as cross-coupled latches). @p out must not
     * already be driven.
     */
    void addGateOnto(GateKind kind, const std::vector<NetId> &ins,
                     NetId out);

    /** Shared constant net of the given value. */
    NetId constNet(bool value);

    /** Declare @p net the next primary input (bus order). */
    void markInput(NetId net);
    /** Declare @p net the next primary output (bus order). */
    void markOutput(NetId net);

    /** Set the group tag applied to subsequently added gates. */
    void setGroup(uint16_t group) { currentGroup = group; }
    /** Current group tag. */
    uint16_t group() const { return currentGroup; }
    /** Number of distinct group tags used so far (max tag + 1). */
    uint16_t numGroups() const { return maxGroup + 1; }

    /** Number of gates. */
    size_t numGates() const { return gateList.size(); }
    /** Number of nets. */
    size_t numNets() const { return netFlags.size(); }
    /** Gate accessor. */
    const Gate &gate(size_t i) const { return gateList[i]; }
    /** Primary inputs in declaration order. */
    const std::vector<NetId> &inputs() const { return inputList; }
    /** Primary outputs in declaration order. */
    const std::vector<NetId> &outputs() const { return outputList; }

    /** Total transistors over all gates. */
    size_t transistorCount() const;

    /**
     * Combinational depth in gates (longest path, feedback edges to
     * already-placed gates ignored). Used by the timing model.
     */
    int depth() const;

    /**
     * True when some gate reads a net that is neither a primary
     * input nor driven by an earlier gate, i.e. structural feedback
     * exists. Kept up to date as gates and inputs are added, so the
     * query is free on a built netlist.
     */
    bool hasFeedback() const { return earlyReads != 0; }

    /**
     * The bit-cell index (circuit/cell_index.hh), or null when the
     * netlist was built by hand. NetlistBuilder::take() attaches it;
     * any later edit drops it, so a present index is always current.
     */
    const CellIndex *cellIndex() const { return cells.get(); }

    /** Index the groups as they stand (see cellIndex()). */
    void indexCells();

  private:
    /** netFlags bits. */
    enum : uint8_t {
        netDriven = 1,    ///< driven by a gate added so far
        netReadEarly = 2, ///< read by a gate before any gate drove it
        netInput = 4,     ///< declared a primary input
    };

    std::vector<Gate> gateList;
    std::vector<NetId> inputList;
    std::vector<NetId> outputList;
    /** Per-net netFlags bits. */
    std::vector<uint8_t> netFlags;
    /** Nets read before they were driven and not primary inputs:
     *  the feedback edges hasFeedback() reports. */
    size_t earlyReads = 0;
    NetId constNets[2] = {invalidNet, invalidNet};
    uint16_t currentGroup = 0;
    uint16_t maxGroup = 0;
    /** Immutable once built; copies of the netlist share it. */
    std::shared_ptr<const CellIndex> cells;
};

} // namespace dtann

#endif // DTANN_CIRCUIT_NETLIST_HH
