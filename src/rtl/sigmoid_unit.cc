#include "rtl/sigmoid_unit.hh"

#include <cmath>

#include "common/logging.hh"
#include "rtl/adder.hh"
#include "rtl/multiplier.hh"

namespace dtann {

double
logistic(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

const PwlTable &
logisticPwlTable()
{
    static const PwlTable table = [] {
        PwlTable t;
        for (int i = 0; i < 16; ++i) {
            double x0 = -8.0 + i;
            double x1 = x0 + 1.0;
            double y0 = logistic(x0);
            double y1 = logistic(x1);
            double a = y1 - y0;
            double b = y0 - a * x0;
            t[static_cast<size_t>(i)] = {Fix16::fromDouble(a),
                                         Fix16::fromDouble(b)};
        }
        return t;
    }();
    return table;
}

Netlist
buildSigmoidUnit(const PwlTable &table, FaStyle style)
{
    NetlistBuilder bld;
    Bus x = bld.inputBus(16);

    // Range detection: x is in [-8, 8) exactly when bits 14 and 13
    // both equal the sign bit (sign extension holds down to the
    // integral MSB).
    bld.beginCell();
    NetId sign = x[15];
    NetId eq14 = bld.xnor2(x[14], sign);
    NetId eq13 = bld.xnor2(x[13], sign);
    NetId in_range = bld.and2(eq14, eq13);
    NetId out_range = bld.notG(in_range);
    NetId hi_sat = bld.and2(bld.notG(sign), out_range);
    NetId lo_sat = bld.and2(sign, out_range);

    // Segment index: floor(x) + 8 in 4 bits = {x12..x10, !x13}.
    bld.beginCell();
    Bus idx = {x[10], x[11], x[12], bld.notG(x[13])};
    Bus idx_n(4);
    for (size_t i = 0; i < 4; ++i)
        idx_n[i] = bld.notG(idx[i]);

    // 4-to-16 one-hot decoder.
    Bus sel(16);
    for (size_t i = 0; i < 16; ++i) {
        bld.beginCell();
        Bus lits(4);
        for (size_t b = 0; b < 4; ++b)
            lits[b] = (i >> b) & 1 ? idx[b] : idx_n[b];
        sel[i] = bld.andTree(lits);
    }

    // Hardwired coefficient look-up: AND-OR selection of constant
    // bits. A bit of the selected coefficient is the OR of the
    // select lines of all entries having that bit set.
    auto lookup = [&](auto bit_of) {
        Bus out(16);
        for (size_t k = 0; k < 16; ++k) {
            bld.beginCell();
            Bus terms;
            for (size_t i = 0; i < 16; ++i)
                if (bit_of(table[i], k))
                    terms.push_back(sel[i]);
            out[k] = terms.empty() ? bld.constant(false)
                                   : bld.orTree(terms);
        }
        return out;
    };
    Bus coeff_a = lookup([](const PwlSegment &s, size_t k) {
        return (s.a.bits() >> k) & 1;
    });
    Bus coeff_b = lookup([](const PwlSegment &s, size_t k) {
        return (s.b.bits() >> k) & 1;
    });

    // Datapath: (a * x) >> 10 selected from the 32-bit product,
    // then + b with 16-bit wrap.
    Bus product = multiplySigned(bld, coeff_a, x, style);
    Bus shifted(product.begin() + Fix16::fracBits,
                product.begin() + Fix16::fracBits + 16);
    Bus sum = rippleAdd(bld, shifted, coeff_b, bld.constant(false),
                        style, nullptr);

    // Output stage: saturate to 1.0 (raw 1<<10) or 0.0 outside the
    // input range.
    Bus f(16);
    for (size_t k = 0; k < 16; ++k) {
        bld.beginCell();
        NetId base = bld.and2(sum[k], in_range);
        f[k] = (k == Fix16::fracBits) ? bld.or2(base, hi_sat) : base;
    }
    (void)lo_sat; // Low saturation is the all-zero base path.

    bld.outputBus(f);
    return bld.take();
}

} // namespace dtann
