#include "common/fixed_point.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dtann {

void
Fix16::fromDoubles(const double *x, Fix16 *out, size_t n)
{
    size_t k = 0;
#if defined(__SSE2__)
    const __m128d sc = _mm_set1_pd(scale), sh = _mm_set1_pd(shifter);
    const __m128d lo = _mm_set1_pd(rawMin), hi = _mm_set1_pd(rawMax);
    // Two words as int32 in the low half. maxpd returns its second
    // operand when either is NaN, and the ordered compare then
    // clears that lane to +0.0, fromDouble()'s NaN result.
    auto two = [&](const double *p) {
        __m128d v =
            _mm_sub_pd(_mm_add_pd(_mm_mul_pd(_mm_loadu_pd(p), sc), sh), sh);
        __m128d c = _mm_min_pd(_mm_max_pd(v, lo), hi);
        return _mm_cvttpd_epi32(_mm_and_pd(c, _mm_cmpord_pd(v, v)));
    };
    auto four = [&](const double *p) {
        return _mm_unpacklo_epi64(two(p), two(p + 2));
    };
    // The words are in range, so packssdw saturates nothing.
    for (; k + 8 <= n; k += 8)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + k),
                         _mm_packs_epi32(four(x + k), four(x + k + 4)));
    if (k + 4 <= n) {
        __m128i w = four(x + k);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + k),
                         _mm_packs_epi32(w, w));
        k += 4;
    }
#endif
    for (; k < n; ++k)
        out[k] = fromDouble(x[k]);
}

uint32_t
Fix16::hwDot(const Fix16 *w, const Fix16 *x, size_t n)
{
    uint32_t sum = 0;
    size_t k = 0;
#if defined(__SSE2__)
    if (n >= 8) {
        // The low 16 bits of p >> fracBits, for the 32-bit product
        // p = hi:lo, are lo >> fracBits (logical) or'ed with
        // hi << (16 - fracBits). madd with ones sign-extends them
        // and adds pairs into int32 lanes, which wrap mod 2^32.
        const __m128i ones = _mm_set1_epi16(1);
        __m128i acc = _mm_setzero_si128();
        for (; k + 8 <= n; k += 8) {
            __m128i a =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(w + k));
            __m128i b =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(x + k));
            __m128i p = _mm_or_si128(
                _mm_srli_epi16(_mm_mullo_epi16(a, b), fracBits),
                _mm_slli_epi16(_mm_mulhi_epi16(a, b), width - fracBits));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(p, ones));
        }
        acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0x4e));
        acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0xb1));
        sum = static_cast<uint32_t>(_mm_cvtsi128_si32(acc));
    }
#endif
    for (; k < n; ++k)
        sum += static_cast<uint32_t>(hwMul(w[k], x[k]).raw());
    return sum;
}

Fix16
Fix16::satAdd(Fix16 a, Fix16 b)
{
    int32_t s = static_cast<int32_t>(a.value) + static_cast<int32_t>(b.value);
    if (s > rawMax)
        s = rawMax;
    if (s < rawMin)
        s = rawMin;
    return Fix16(static_cast<int16_t>(s));
}

Fix16
Fix16::satMul(Fix16 a, Fix16 b)
{
    int32_t p = static_cast<int32_t>(a.value) * static_cast<int32_t>(b.value);
    int32_t s = p >> fracBits;
    if (s > rawMax)
        s = rawMax;
    if (s < rawMin)
        s = rawMin;
    return Fix16(static_cast<int16_t>(s));
}

} // namespace dtann
