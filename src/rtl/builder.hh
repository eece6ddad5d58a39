/**
 * @file
 * Composite-logic netlist builder.
 *
 * Provides buses and the standard composite functions (AND, OR,
 * XOR, MUX, full adders) expressed in the inverting CMOS primitives
 * of src/circuit. Every 1-bit arithmetic cell is tagged with its own
 * group so the defect injector can sample "a random bit operation,
 * then a random transistor within it", as in the paper.
 */

#ifndef DTANN_RTL_BUILDER_HH
#define DTANN_RTL_BUILDER_HH

#include <string>
#include <vector>

#include "circuit/netlist.hh"

namespace dtann {

/** A bundle of nets, LSB first. */
using Bus = std::vector<NetId>;

/** Full-adder implementation styles. */
enum class FaStyle : uint8_t {
    Nand9,  ///< classic 9x NAND2 full adder (36 transistors)
    Mirror, ///< 28-transistor mirror adder (complex CMOS gates)
};

/** Stable lower-case style name ("nand9"/"mirror"), used in JSON. */
const char *faStyleName(FaStyle s);

/** Parse a faStyleName(); returns false on unknown names. */
bool faStyleFromName(const std::string &name, FaStyle &out);

/** Sum/carry pair returned by adder cells. */
struct SumCarry
{
    NetId sum;
    NetId carry;
};

/** Builds composite logic on top of a Netlist. */
class NetlistBuilder
{
  public:
    /** The netlist under construction. */
    Netlist &netlist() { return nl; }

    /** Move the finished netlist out of the builder, its cell
     *  index attached (Netlist::cellIndex()). */
    Netlist
    take()
    {
        nl.indexCells();
        return std::move(nl);
    }

    /** Create a @p width bit primary-input bus. */
    Bus inputBus(int width);

    /** Declare @p bus as the next primary outputs (LSB first). */
    void outputBus(const Bus &bus);

    /** Start a new bit-cell group for subsequently added gates. */
    void beginCell();

    /** @name Primitive gates @{ */
    NetId notG(NetId a) { return nl.addGate(GateKind::Not, {a}); }
    NetId nand2(NetId a, NetId b)
    {
        return nl.addGate(GateKind::Nand2, {a, b});
    }
    NetId nor2(NetId a, NetId b)
    {
        return nl.addGate(GateKind::Nor2, {a, b});
    }
    /** @} */

    /** @name Composite two-level functions @{ */
    NetId and2(NetId a, NetId b) { return notG(nand2(a, b)); }
    NetId or2(NetId a, NetId b) { return notG(nor2(a, b)); }
    NetId xor2(NetId a, NetId b);
    NetId xnor2(NetId a, NetId b) { return notG(xor2(a, b)); }
    /** 2-to-1 multiplexer: sel ? b : a. */
    NetId mux2(NetId sel, NetId a, NetId b);
    /** @} */

    /** Reduction trees. */
    NetId andTree(const Bus &nets);
    NetId orTree(const Bus &nets);

    /** One-bit adders (each call is NOT its own cell; use
     *  beginCell() around calls to delimit bit cells). @{ */
    SumCarry halfAdder(NetId a, NetId b);
    SumCarry fullAdder(NetId a, NetId b, NetId cin, FaStyle style);
    /** @} */

    /** Shared constant net. */
    NetId constant(bool v) { return nl.constNet(v); }

  private:
    Netlist nl;
    uint16_t nextGroup = 0;
};

} // namespace dtann

#endif // DTANN_RTL_BUILDER_HH
