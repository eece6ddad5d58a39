/**
 * @file
 * The width-templated sweep kernel behind every LanePlane width.
 * Included by the per-ISA translation units
 * (lane_sweep_generic/avx2/avx512.cc), each of which instantiates
 * laneSweep<1/4/8> under its own -m flags so the fixed-trip inner
 * loops over W words vectorize into the widest registers that TU
 * targets. The W == 1 instantiation (via the generic TU) is the
 * single-word differential oracle the wide paths are tested against.
 */

#ifndef DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH
#define DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH

#include <bit>

#include "circuit/lane_plane.hh"
#include "common/logging.hh"

namespace dtann {

/**
 * Run @p count lane ops on W-word planes. Each output is its table
 * in algebraic normal form, an XOR of products of the input planes,
 * accumulated in registers; only the output planes are stored (a
 * cell's internal nets are never materialised). Inputs are read in
 * place: an op's outputs are never its inputs on a feedback-free
 * netlist.
 */
template <size_t W>
void
laneSweep(const LaneOp *ops, size_t count, uint64_t *net_lanes)
{
    for (const LaneOp *op = ops; op != ops + count; ++op) {
        const uint64_t *in[4] = {};
        for (int i = 0; i < op->numIn; ++i)
            in[i] = net_lanes + static_cast<size_t>(op->in[i]) * W;
        for (int o = 0; o < op->numOut; ++o) {
            uint64_t acc[W] = {};
            for (uint32_t terms = op->anf[o]; terms; terms &= terms - 1) {
                uint64_t prod[W];
                for (size_t w = 0; w < W; ++w)
                    prod[w] = ~0ull;
                for (uint32_t vars = static_cast<uint32_t>(
                         std::countr_zero(terms));
                     vars; vars &= vars - 1) {
                    const uint64_t *v = in[std::countr_zero(vars)];
                    for (size_t w = 0; w < W; ++w)
                        prod[w] &= v[w];
                }
                for (size_t w = 0; w < W; ++w)
                    acc[w] ^= prod[w];
            }
            uint64_t *dst = net_lanes + static_cast<size_t>(op->out[o]) * W;
            for (size_t w = 0; w < W; ++w)
                dst[w] = acc[w];
        }
    }
}

} // namespace dtann

#endif // DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH
