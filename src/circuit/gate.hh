/**
 * @file
 * CMOS logic gate primitives.
 *
 * Netlists are restricted to gates that exist as single static CMOS
 * stages (one P pull-up network, one N pull-down network), so every
 * gate has a concrete transistor schematic for defect injection.
 * Composite functions (AND, OR, XOR, adders, latches) are built from
 * these primitives by the RTL builders.
 *
 * CarryN and MirrorSumN are the complex gates of the classic 28T
 * "mirror" full adder; the paper stresses that transistor faults in
 * such complex gates are poorly captured by gate-level stuck-at
 * models.
 */

#ifndef DTANN_CIRCUIT_GATE_HH
#define DTANN_CIRCUIT_GATE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace dtann {

/** Supported gate kinds. */
enum class GateKind : uint8_t {
    Const0,     ///< constant 0 (no transistors, not a fault site)
    Const1,     ///< constant 1
    Not,        ///< inverter
    Nand2,
    Nand3,
    Nor2,
    Nor3,
    Aoi21,      ///< !((a & b) | c)
    Aoi22,      ///< !((a & b) | (c & d))
    Oai21,      ///< !((a | b) & c)
    Oai22,      ///< !((a | b) & (c | d))
    CarryN,     ///< mirror-adder carry: !((a & b) | (c & (a | b)))
    MirrorSumN, ///< mirror-adder sum: !((a&b&c) | (d & (a|b|c)))
    NumKinds,
};

namespace gate_detail {
/** Inputs per kind, in GateKind order. */
inline constexpr int arity[] = {0, 0, 1, 2, 3, 2, 3, 3, 4, 3, 4, 3, 4};
/**
 * Transistors per kind, in GateKind order: 2 per input for fully
 * complementary gates, 0 for constants, and the mirror networks of
 * CarryN (5 NMOS + 5 PMOS) and MirrorSumN (7 NMOS + 7 PMOS).
 */
inline constexpr int transistors[] = {0, 0, 2, 4, 6, 4, 6, 6, 8, 6, 8,
                                      10, 14};
static_assert(std::size(arity) == static_cast<size_t>(GateKind::NumKinds));
static_assert(std::size(transistors) ==
              static_cast<size_t>(GateKind::NumKinds));
} // namespace gate_detail

/** Number of inputs of a gate kind. */
constexpr int
gateArity(GateKind kind)
{
    return gate_detail::arity[static_cast<size_t>(kind)];
}

/** Human-readable gate name. */
const char *gateName(GateKind kind);

/**
 * Defect-free combinational evaluation.
 *
 * @param inputs input bits packed LSB-first (input 0 is bit 0)
 * @return the gate output bit
 */
bool gateEval(GateKind kind, uint32_t inputs);

/**
 * Defect-free truth table of @p kind over a 4-bit input index: bit
 * idx is gateEval() of idx with the bits at and above the kind's
 * arity cleared (unused inputs never change the output). Tabulated
 * once for every kind, so folding a clean gate is one lookup.
 */
uint16_t gateTable(GateKind kind);

/**
 * Transistor count of the static CMOS implementation (2 per input
 * for fully complementary gates; 0 for constants).
 */
constexpr int
gateTransistorCount(GateKind kind)
{
    return gate_detail::transistors[static_cast<size_t>(kind)];
}

} // namespace dtann

#endif // DTANN_CIRCUIT_GATE_HH
