/**
 * @file
 * The width-templated sweep kernel behind every LanePlane width:
 * gates, and on a pruned sweep whole clean cells (laneSweepCell).
 * Included by the per-ISA translation units
 * (lane_sweep_generic/avx2/avx512.cc), each of which instantiates
 * laneSweepGates<1/4/8> under its own -m flags so the fixed-trip
 * inner loops over W words vectorize into the widest registers that
 * TU targets. W == 1 reduces exactly to PR 3's single-word sweep —
 * that instantiation (via the generic TU) is the differential
 * oracle the wide paths are tested against.
 */

#ifndef DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH
#define DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH

#include <bit>

#include "circuit/lane_plane.hh"
#include "common/logging.hh"

namespace dtann {

/**
 * One clean cell on W-word planes: each external output is its
 * table in algebraic normal form, an XOR of products of the input
 * planes, accumulated in registers. The cell's internal nets are
 * never materialised; only its output planes are stored.
 */
template <size_t W>
inline void
laneSweepCell(const Cell &c, uint64_t *net_lanes)
{
    const uint64_t *in[4] = {};
    for (int i = 0; i < c.numIn; ++i)
        in[i] = net_lanes + static_cast<size_t>(c.in[i]) * W;
    for (int o = 0; o < c.numOut; ++o) {
        uint64_t acc[W] = {};
        for (uint32_t terms = c.anf[o]; terms; terms &= terms - 1) {
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
        uint64_t *dst = net_lanes + static_cast<size_t>(c.out[o]) * W;
        for (size_t w = 0; w < W; ++w)
            dst[w] = acc[w];
    }
}

template <size_t W>
void
laneSweepGates(const LaneSweepCtx &ctx)
{
    for (size_t idx = 0; idx < ctx.count; ++idx) {
        uint32_t step =
            ctx.active ? ctx.active[idx] : static_cast<uint32_t>(idx);
        if (step & kCellStep) {
            laneSweepCell<W>(ctx.cells[step & ~kCellStep], ctx.netLanes);
            continue;
        }
        size_t gi = step;
        const Gate &g = ctx.gates[gi];
        int arity = g.arity();
        // Inputs are read in place: every gate kind is element-wise
        // per lane, so out[w] depends only on in*[w] and even an
        // output net aliasing an input net stays correct. Copying
        // the planes to the stack here would roughly double the
        // kernel's memory traffic at W == 8; only a forced (stuck)
        // input needs a private plane.
        const uint64_t *src[4] = {};
        for (int i = 0; i < arity; ++i)
            src[i] = ctx.netLanes + static_cast<size_t>(g.in[i]) * W;
        uint64_t forced[4][W];
        if (ctx.haveFaults) {
            const int8_t *force = ctx.inputForce + gi * 4;
            for (int i = 0; i < arity; ++i) {
                if (force[i] >= 0) {
                    uint64_t v = force[i] ? ~0ull : 0;
                    for (size_t w = 0; w < W; ++w)
                        forced[i][w] = v;
                    src[i] = forced[i];
                }
            }
        }
        const uint64_t *a = src[0], *b = src[1], *c = src[2],
                       *d = src[3];
        uint64_t out[W];
        if (ctx.haveFaults && ctx.valuePlane[gi] != kLaneNoOverride) {
            // Truth-table mux: for each combination whose table
            // entry is One, select the lanes presenting it.
            uint32_t plane = ctx.valuePlane[gi];
            for (size_t w = 0; w < W; ++w)
                out[w] = 0;
            for (uint32_t combo = 0; combo < (1u << arity); ++combo) {
                if (!(plane >> combo & 1))
                    continue;
                uint64_t sel[W];
                for (size_t w = 0; w < W; ++w)
                    sel[w] = ~0ull;
                for (int i = 0; i < arity; ++i) {
                    const uint64_t *v = src[i];
                    if (combo >> i & 1) {
                        for (size_t w = 0; w < W; ++w)
                            sel[w] &= v[w];
                    } else {
                        for (size_t w = 0; w < W; ++w)
                            sel[w] &= ~v[w];
                    }
                }
                for (size_t w = 0; w < W; ++w)
                    out[w] |= sel[w];
            }
        } else {
            switch (g.kind) {
              case GateKind::Const0:
                for (size_t w = 0; w < W; ++w)
                    out[w] = 0;
                break;
              case GateKind::Const1:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~0ull;
                break;
              case GateKind::Not:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~a[w];
                break;
              case GateKind::Nand2:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~(a[w] & b[w]);
                break;
              case GateKind::Nand3:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~(a[w] & b[w] & c[w]);
                break;
              case GateKind::Nor2:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~(a[w] | b[w]);
                break;
              case GateKind::Nor3:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~(a[w] | b[w] | c[w]);
                break;
              case GateKind::Aoi21:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] & b[w]) | c[w]);
                break;
              case GateKind::Aoi22:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] & b[w]) | (c[w] & d[w]));
                break;
              case GateKind::Oai21:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] | b[w]) & c[w]);
                break;
              case GateKind::Oai22:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] | b[w]) & (c[w] | d[w]));
                break;
              case GateKind::CarryN:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] & b[w]) | (c[w] & (a[w] | b[w])));
                break;
              case GateKind::MirrorSumN:
                for (size_t w = 0; w < W; ++w)
                    out[w] = ~((a[w] & b[w] & c[w]) |
                               (d[w] & (a[w] | b[w] | c[w])));
                break;
              default:
                panic("lane sweep: bad gate kind");
            }
        }
        if (ctx.haveFaults && ctx.outputForce[gi] >= 0) {
            uint64_t v = ctx.outputForce[gi] ? ~0ull : 0;
            for (size_t w = 0; w < W; ++w)
                out[w] = v;
        }
        uint64_t *dst =
            ctx.netLanes + static_cast<size_t>(g.out) * W;
        for (size_t w = 0; w < W; ++w)
            dst[w] = out[w];
    }
}

} // namespace dtann

#endif // DTANN_CIRCUIT_LANE_SWEEP_IMPL_HH
