#include "common/rng.hh"

namespace dtann {

namespace {

constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

/** One twisted word: the top 33 bits of @p hi joined to the low 31
 *  of @p lo, shifted through the twist matrix into @p far. */
inline uint64_t
twistWord(uint64_t hi, uint64_t lo, uint64_t far)
{
    uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

} // namespace

Rng::Engine::Engine(uint64_t seed) : pos(kN)
{
    mt[0] = seed;
    for (size_t i = 1; i < kN; ++i)
        mt[i] = 6364136223846793005ULL * (mt[i - 1] ^ (mt[i - 1] >> 62)) +
            i;
}

void
Rng::Engine::twist()
{
    // Words [0, kN - kM) read only old words; the rest read the new
    // word kN - kM places back, so each loop has no carried
    // dependence shorter than kM words and vectorises.
    uint64_t *x = mt.data();
    for (size_t i = 0; i < kN - kM; ++i)
        x[i] = twistWord(x[i], x[i + 1], x[i + kM]);
    for (size_t i = kN - kM; i < kN - 1; ++i)
        x[i] = twistWord(x[i], x[i + 1], x[i - (kN - kM)]);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
    pos = 0;
}

} // namespace dtann
