/**
 * @file
 * Q6.10 fixed-point arithmetic with hardware-exact semantics.
 *
 * The accelerator's datapath is 16-bit two's complement with a 6-bit
 * integral part and a 10-bit fractional part (the paper's design
 * point). Two flavours of each operation are provided:
 *
 *  - hw*(): bit-exact model of the gate-level datapath. Multiplies
 *    compute the full 32-bit product and select bits [25:10]
 *    (truncation toward minus infinity, wrap-around overflow), adds
 *    wrap. These match the RTL netlists bit for bit.
 *  - sat*(): saturating versions used where a software model prefers
 *    graceful clipping (weight updates on the companion core).
 *
 * Neuron accumulation uses a wider 24-bit Q14.10 accumulator
 * (Acc24), saturated back to Q6.10 at the activation input.
 */

#ifndef DTANN_COMMON_FIXED_POINT_HH
#define DTANN_COMMON_FIXED_POINT_HH

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__FAST_MATH__) || FLT_EVAL_METHOD != 0
#error "Fix16::fromDouble needs strict IEEE double arithmetic"
#endif

namespace dtann {

/** A Q6.10 fixed-point value held in 16 bits. */
class Fix16
{
  public:
    /** Number of fractional bits. */
    static constexpr int fracBits = 10;
    /** Total width in bits. */
    static constexpr int width = 16;
    /** Scale factor (2^fracBits). */
    static constexpr int32_t scale = 1 << fracBits;
    /** Most positive raw value. */
    static constexpr int16_t rawMax = INT16_MAX;
    /** Most negative raw value. */
    static constexpr int16_t rawMin = INT16_MIN;

    constexpr Fix16() : value(0) {}

    /** Build from a raw 16-bit pattern. */
    static constexpr Fix16 fromRaw(int16_t raw) { return Fix16(raw); }

    /**
     * Convert from double with round-to-nearest and saturation.
     *
     * Rounds like std::nearbyint() under the default rounding mode,
     * without its libm call (the baseline x86-64 ISA has no rounding
     * instruction): adding and subtracting 1.5 * 2^52 leaves no
     * fraction bit, so the sum rounds half to even exactly for
     * |x * scale| < 2^51, and anything larger saturates either way.
     * It relies on strict IEEE double evaluation: -ffast-math would
     * fold the pair away, and x87 excess precision would round at
     * the wrong bit. NaN converts to zero.
     */
    static Fix16
    fromDouble(double x)
    {
        double scaled = (x * scale + shifter) - shifter;
        if (scaled > rawMax)
            return Fix16(rawMax);
        if (scaled < rawMin)
            return Fix16(rawMin);
        if (std::isnan(scaled))
            return Fix16();
        return Fix16(static_cast<int16_t>(scaled));
    }

    /**
     * fromDouble() of x[0..n) into out[0..n), bit for bit, eight
     * words per SSE2 step: the same shifter rounding, a clamp to
     * [rawMin, rawMax] in double, then truncation (DESIGN.md §14
     * "Bulk conversion").
     */
    static void fromDoubles(const double *x, Fix16 *out, size_t n);

    /** Convert to double. */
    constexpr double toDouble() const
    {
        return static_cast<double>(value) / scale;
    }

    /** Raw two's complement pattern. */
    constexpr int16_t raw() const { return value; }

    /** Raw pattern as an unsigned bit vector (for netlist inputs). */
    constexpr uint16_t bits() const { return static_cast<uint16_t>(value); }

    /** Hardware add: 16-bit wrap-around. */
    static constexpr Fix16
    hwAdd(Fix16 a, Fix16 b)
    {
        return Fix16(static_cast<int16_t>(
            static_cast<uint16_t>(a.value) + static_cast<uint16_t>(b.value)));
    }

    /** Hardware subtract: 16-bit wrap-around. */
    static constexpr Fix16
    hwSub(Fix16 a, Fix16 b)
    {
        return Fix16(static_cast<int16_t>(
            static_cast<uint16_t>(a.value) - static_cast<uint16_t>(b.value)));
    }

    /**
     * Hardware multiply: full 32-bit product, arithmetic shift right
     * by fracBits (selects product bits [25:10]), wrap to 16 bits.
     */
    static constexpr Fix16
    hwMul(Fix16 a, Fix16 b)
    {
        int32_t p = static_cast<int32_t>(a.value) *
            static_cast<int32_t>(b.value);
        return Fix16(static_cast<int16_t>(
            static_cast<uint32_t>(p >> fracBits)));
    }

    /**
     * The sum of hwMul(w[k], x[k]).raw() over [0, n), each product
     * sign-extended, modulo 2^32: a clean multiply/add chain whose
     * adders wrap at 24 bits is this sum wrapped once (DESIGN.md
     * §14 "Clean neurons"). Eight products per SSE2 step.
     */
    static uint32_t hwDot(const Fix16 *w, const Fix16 *x, size_t n);

    /** Saturating add. */
    static Fix16 satAdd(Fix16 a, Fix16 b);
    /** Saturating multiply (truncating, like hwMul, but clipped). */
    static Fix16 satMul(Fix16 a, Fix16 b);

    constexpr bool operator==(const Fix16 &o) const = default;

  private:
    explicit constexpr Fix16(int16_t raw) : value(raw) {}

    /** 1.5 * 2^52: adding and subtracting it rounds to an integer. */
    static constexpr double shifter = 0x1.8p52;

    int16_t value;
};

/**
 * 24-bit Q14.10 accumulator modelling the per-neuron adder tree.
 *
 * Adds wrap at 24 bits; toFix16() saturates to Q6.10 as the
 * activation-unit input stage does.
 */
class Acc24
{
  public:
    /** Total width in bits. */
    static constexpr int width = 24;
    /** Most positive raw value. */
    static constexpr int32_t rawMax = (1 << 23) - 1;
    /** Most negative raw value. */
    static constexpr int32_t rawMin = -(1 << 23);

    constexpr Acc24() : value(0) {}

    /** Build from a raw (sign-extended) 24-bit pattern. */
    static constexpr Acc24 fromRaw(int32_t raw) { return Acc24(wrap(raw)); }

    /** Sign-extend a Q6.10 value into the accumulator. */
    static constexpr Acc24
    fromFix16(Fix16 x)
    {
        return Acc24(static_cast<int32_t>(x.raw()));
    }

    /** Hardware add: 24-bit wrap-around. */
    static constexpr Acc24
    hwAdd(Acc24 a, Acc24 b)
    {
        return Acc24(wrap(a.value + b.value));
    }

    /** Saturate to Q6.10 (activation-unit input stage). */
    constexpr Fix16
    toFix16Sat() const
    {
        if (value > Fix16::rawMax)
            return Fix16::fromRaw(Fix16::rawMax);
        if (value < Fix16::rawMin)
            return Fix16::fromRaw(Fix16::rawMin);
        return Fix16::fromRaw(static_cast<int16_t>(value));
    }

    /** Raw sign-extended value. */
    constexpr int32_t raw() const { return value; }

    /** Raw pattern as a 24-bit unsigned vector (for netlist inputs). */
    constexpr uint32_t
    bits() const
    {
        return static_cast<uint32_t>(value) & 0xffffffu;
    }

    /** Convert to double (Q14.10 interpretation). */
    constexpr double
    toDouble() const
    {
        return static_cast<double>(value) / Fix16::scale;
    }

    constexpr bool operator==(const Acc24 &o) const = default;

  private:
    explicit constexpr Acc24(int32_t raw) : value(raw) {}

    /** Wrap a value into the signed 24-bit range. */
    static constexpr int32_t
    wrap(int32_t v)
    {
        uint32_t u = static_cast<uint32_t>(v) & 0xffffffu;
        // Sign-extend bit 23.
        return (u & 0x800000u) ? static_cast<int32_t>(u | 0xff000000u)
                               : static_cast<int32_t>(u);
    }

    int32_t value;
};

} // namespace dtann

#endif // DTANN_COMMON_FIXED_POINT_HH
