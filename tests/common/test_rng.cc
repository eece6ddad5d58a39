/**
 * @file
 * Unit tests for the deterministic RNG, and its engine against
 * std::mt19937_64, the oracle.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "common/fixed_point.hh"
#include "common/rng.hh"

namespace dtann {
namespace {

/**
 * Rng's draws over std::mt19937_64: the same distributions and
 * algorithms on the std engine, so every Rng draw has an oracle.
 */
class StdRng
{
  public:
    explicit StdRng(uint64_t seed) : engine(seed) {}

    uint64_t
    nextUint(uint64_t bound)
    {
        return std::uniform_int_distribution<uint64_t>(0, bound - 1)(
            engine);
    }

    int64_t
    nextInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
    }

    double nextDouble() { return unit(engine); }
    double nextGauss() { return gauss(engine); }
    StdRng split() { return StdRng(engine() ^ 0x9e3779b97f4a7c15ULL); }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[nextUint(i)]);
    }

    std::vector<size_t>
    sampleWithoutReplacement(size_t n, size_t k)
    {
        std::vector<size_t> idx(n);
        for (size_t i = 0; i < n; ++i)
            idx[i] = i;
        for (size_t i = 0; i < k; ++i)
            std::swap(idx[i], idx[i + nextUint(n - i)]);
        idx.resize(k);
        return idx;
    }

    std::mt19937_64 engine;

  private:
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    std::normal_distribution<double> gauss{0.0, 1.0};
};

/** The seed Rng::substream(seed, path) seeds its engine with. */
uint64_t
substreamSeed(uint64_t seed, std::initializer_list<uint64_t> path)
{
    uint64_t h = Rng::mix64(seed);
    for (uint64_t p : path)
        h = Rng::mix64(h ^ Rng::mix64(p));
    return h;
}

/** Seeds of the oracle tests: zero, one, the default, all ones. */
const uint64_t kOracleSeeds[] = {0, 1, 0x5eedULL, ~0ULL};

/** Every engine word equals std::mt19937_64's, across 6,410 blocks
 *  of 312 words, so both sides of every block edge. */
void
expectStdWords(Rng rng, uint64_t std_seed)
{
    std::mt19937_64 oracle(std_seed);
    for (size_t i = 0; i < 2000000; ++i) {
        uint64_t want = oracle();
        uint64_t got = rng.nextWord();
        if (got != want)
            FAIL() << "seed " << std_seed << ": word " << i << " is "
                   << got << ", std::mt19937_64 gives " << want;
    }
}

TEST(RngEngine, MatchesStdMt19937_64WordForWord)
{
    for (uint64_t seed : kOracleSeeds)
        expectStdWords(Rng(seed), seed);
    expectStdWords(Rng::substream(42, {3, 1, 4}),
                   substreamSeed(42, {3, 1, 4}));
}

TEST(RngEngine, DefaultSeedIsStdSeed)
{
    Rng rng;
    std::mt19937_64 oracle(0x5eedULL);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.nextWord(), oracle());
}

/**
 * Every draw of @p got equals @p want's over @p rounds mixed rounds.
 * Each round draws a different number of words, so the draws land
 * at every offset of a block.
 */
void
expectStdDraws(Rng &got, StdRng &want, int rounds)
{
    const uint64_t bounds[] = {1, 3, 65536, (1ULL << 63) + 1};
    for (int r = 0; r < rounds; ++r) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (uint64_t b : bounds)
            ASSERT_EQ(got.nextUint(b), want.nextUint(b)) << "bound " << b;
        ASSERT_EQ(got.nextInt(Acc24::rawMin, Acc24::rawMax),
                  want.nextInt(Acc24::rawMin, Acc24::rawMax));
        ASSERT_EQ(got.nextDouble(), want.nextDouble());
        for (int g = 0; g < r % 3; ++g)
            ASSERT_EQ(got.nextGauss(), want.nextGauss());
        if (r % 7 == 0) {
            std::vector<int> a(r % 29), b(r % 29);
            for (size_t i = 0; i < a.size(); ++i)
                a[i] = b[i] = static_cast<int>(i);
            got.shuffle(a);
            want.shuffle(b);
            ASSERT_EQ(a, b);
            size_t n = 40 + static_cast<size_t>(r % 11);
            ASSERT_EQ(got.sampleWithoutReplacement(n, n / 2),
                      want.sampleWithoutReplacement(n, n / 2));
        }
    }
}

TEST(RngEngine, DrawsMatchStdEngine)
{
    std::vector<std::pair<Rng, StdRng>> pairs;
    for (uint64_t seed : kOracleSeeds)
        pairs.emplace_back(Rng(seed), StdRng(seed));
    pairs.emplace_back(Rng::substream(7, {2, 9}),
                       StdRng(substreamSeed(7, {2, 9})));
    for (auto &[got, want] : pairs) {
        expectStdDraws(got, want, 20000);
        // A split child draws from its own engine, seeded from the
        // parent's next word.
        Rng got_child = got.split();
        StdRng want_child = want.split();
        expectStdDraws(got_child, want_child, 2000);
        expectStdDraws(got, want, 2000);
    }
}

TEST(RngEngine, RejectionDrawsMatchStdEngine)
{
    // Just above 2^63, about half the words are rejected: the draw
    // count per value varies, so block edges fall between draws.
    Rng got(0x5eedULL);
    StdRng want(0x5eedULL);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(got.nextUint((1ULL << 63) + 1),
                  want.nextUint((1ULL << 63) + 1));
    ASSERT_EQ(got.nextWord(), want.engine());
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextUint(1000), b.nextUint(1000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextUint(1000000) == b.nextUint(1000000))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextUintInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextUint(7), 7u);
}

TEST(Rng, NextIntInclusiveBounds)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.nextInt(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussRoughMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGauss();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(42);
    Rng a = parent.split();
    Rng b = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextUint(1000000) == b.nextUint(1000000))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsOrderDependent)
{
    // Documented contract: split() draws from the parent engine, so
    // the n-th split depends on how many draws preceded it. This is
    // exactly why parallel code must use substream() instead.
    Rng p1(42), p2(42);
    (void)p2.nextUint(10); // one extra draw shifts every later split
    Rng a = p1.split();
    Rng b = p2.split();
    EXPECT_NE(a.nextUint(1u << 30), b.nextUint(1u << 30));
}

TEST(Rng, SubstreamIsPureFunctionOfSeedAndPath)
{
    // Same (seed, path) always yields the same stream, regardless
    // of any other RNG activity.
    Rng noise(1);
    Rng a = Rng::substream(99, {3, 1, 4});
    for (int i = 0; i < 57; ++i)
        (void)noise.nextDouble();
    Rng b = Rng::substream(99, {3, 1, 4});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextUint(1u << 30), b.nextUint(1u << 30));
}

TEST(Rng, SubstreamDistinctPathsDiffer)
{
    // Differing in any coordinate — or in coordinate order — gives
    // an independent stream.
    Rng a = Rng::substream(7, {1, 2});
    Rng b = Rng::substream(7, {2, 1});
    Rng c = Rng::substream(7, {1, 3});
    Rng d = Rng::substream(8, {1, 2});
    int ab = 0, ac = 0, ad = 0;
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.nextUint(1000000);
        ab += va == b.nextUint(1000000);
        ac += va == c.nextUint(1000000);
        ad += va == d.nextUint(1000000);
    }
    EXPECT_LT(ab, 3);
    EXPECT_LT(ac, 3);
    EXPECT_LT(ad, 3);
}

TEST(Rng, SubstreamAdjacentCountersDecorrelated)
{
    // Counter-based splitting must avalanche: neighbouring cell
    // coordinates (rep k vs rep k+1) share no structure.
    Rng a = Rng::substream(1, {5, 0, 0});
    Rng b = Rng::substream(1, {5, 0, 1});
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextUint(1000000) == b.nextUint(1000000))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(17);
    auto s = rng.sampleWithoutReplacement(50, 20);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 20u);
    for (size_t i : s)
        EXPECT_LT(i, 50u);
}

TEST(Rng, SampleFullPopulation)
{
    Rng rng(17);
    auto s = rng.sampleWithoutReplacement(5, 5);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 5u);
}

} // namespace
} // namespace dtann
