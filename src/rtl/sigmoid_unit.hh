/**
 * @file
 * Gate-level activation-function unit (paper Fig 4).
 *
 * The sigmoid is approximated by 16 linear segments over [-8, 8):
 * f(x) = a_i * x + b_i, where i is the segment index derived from
 * the integral bits of x. Inputs outside the range saturate to 0
 * or 1. The unit comprises: range detection, segment decoder,
 * coefficient look-up (hardwired constants selected through an
 * AND-OR mux), a signed multiplier and a final adder — all built
 * from CMOS primitives so transistor defects can land anywhere,
 * including inside the LUT.
 */

#ifndef DTANN_RTL_SIGMOID_UNIT_HH
#define DTANN_RTL_SIGMOID_UNIT_HH

#include <array>

#include "common/fixed_point.hh"
#include "rtl/builder.hh"

namespace dtann {

/** One piecewise-linear segment: f(x) = a * x + b. */
struct PwlSegment
{
    Fix16 a;
    Fix16 b;
};

/** The 16-entry coefficient table. */
using PwlTable = std::array<PwlSegment, 16>;

/** Exact logistic sigmoid 1 / (1 + e^-x). */
double logistic(double x);

/**
 * The hardware's 16-segment PWL coefficient table over [-8, 8),
 * segment i interpolating the logistic between integer breakpoints.
 */
const PwlTable &logisticPwlTable();

/**
 * Build the activation unit netlist.
 *
 * Primary inputs: x[16] (Q6.10); primary outputs: f[16] (Q6.10).
 *
 * @param table segment coefficients, index 0 covering [-8, -7)
 * @param style full-adder implementation for the datapath
 */
Netlist buildSigmoidUnit(const PwlTable &table,
                         FaStyle style = FaStyle::Nand9);

/**
 * Reference (native) evaluation with the same bit-exact semantics
 * as the netlist: used for clean operators and for equivalence
 * tests. Inline: the clean datapath calls it once per row and
 * neuron.
 */
inline Fix16
sigmoidUnitRef(const PwlTable &table, Fix16 x)
{
    int16_t raw = x.raw();
    if (raw >= 8 * Fix16::scale)
        return Fix16::fromRaw(static_cast<int16_t>(Fix16::scale));
    if (raw < -8 * Fix16::scale)
        return Fix16();
    size_t idx = static_cast<size_t>((raw >> Fix16::fracBits) + 8);
    const PwlSegment &seg = table[idx];
    return Fix16::hwAdd(Fix16::hwMul(seg.a, x), seg.b);
}

} // namespace dtann

#endif // DTANN_RTL_SIGMOID_UNIT_HH
