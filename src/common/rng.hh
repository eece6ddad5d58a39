/**
 * @file
 * Deterministic random number generation.
 *
 * All experiment code takes an explicit Rng so campaigns are exactly
 * reproducible from a single seed. Two sub-stream mechanisms exist:
 *
 * - split(): draws the child seed from the parent engine, so the
 *   child stream depends on *how many* splits happened before it.
 *   Fine for serial code; unusable for parallel work distribution,
 *   because any change in scheduling order changes every stream.
 *
 * - substream(seed, path): counter-based derivation. The child
 *   stream is a pure function of the master seed and a caller-chosen
 *   path of integers (e.g. {task, defect index, repetition}), so it
 *   is independent of evaluation order and thread count. This is
 *   what the parallel campaign engine uses to stay bit-identical
 *   for any number of worker threads.
 */

#ifndef DTANN_COMMON_RNG_HH
#define DTANN_COMMON_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <vector>

#include "common/logging.hh"

namespace dtann {

/**
 * Seeded pseudo-random generator with convenience draws.
 *
 * The engine is an in-tree MT19937-64 that emits exactly the words
 * std::mt19937_64 emits for the same seed, so every draw below is
 * the one the std engine would give. It twists its 312-word state
 * in place one block at a time, in two plain loops the compiler
 * vectorises (the first 156 new words read only old words, the
 * rest read new words 156 places back), and tempers each word when
 * it is read. Its state is the std engine's: 312 words and an
 * index. The std distributions draw from it through the same code
 * paths they take for std::mt19937_64 (same result_type, min() and
 * max()). tests/common/test_rng.cc holds it to std::mt19937_64, the
 * oracle, word for word and through every draw.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eedULL) : engine(seed) {}

    /** The next raw 64-bit engine word. */
    uint64_t nextWord() { return engine(); }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t
    nextUint(uint64_t bound)
    {
        dtann_assert(bound > 0, "nextUint bound must be positive");
        return std::uniform_int_distribution<uint64_t>(0, bound - 1)(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    nextInt(int64_t lo, int64_t hi)
    {
        dtann_assert(lo <= hi, "nextInt empty range");
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
    }

    /** Uniform double in [0, 1). */
    double nextDouble() { return unit(engine); }

    /** Uniform double in [lo, hi). */
    double
    nextDouble(double lo, double hi)
    {
        return lo + (hi - lo) * nextDouble();
    }

    /** Standard normal draw. */
    double nextGauss() { return gauss(engine); }

    /** Normal draw with given mean and standard deviation. */
    double nextGauss(double mean, double sd) { return mean + sd * nextGauss(); }

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Split off an independent sub-stream.
     *
     * @warning The child seed is drawn from this engine, so the
     * result depends on the number of draws/splits performed before
     * the call. Serial code that always splits in the same order is
     * deterministic; work scheduled across threads is not. Parallel
     * code must use substream() instead.
     */
    Rng
    split()
    {
        uint64_t s = engine();
        return Rng(s ^ 0x9e3779b97f4a7c15ULL);
    }

    /** SplitMix64 finalizer (avalanching 64-bit hash). */
    static constexpr uint64_t
    mix64(uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    /**
     * Derive an independent sub-stream by counter-based splitting.
     *
     * The child seed is a hash chain over the master @p seed and the
     * @p path of caller-chosen counters (position-sensitive: path
     * {1, 2} and {2, 1} give different streams). Unlike split(),
     * the result is a pure function of its arguments — no hidden
     * state — so any (task, variant, repetition) cell of a campaign
     * can derive its stream regardless of which thread runs it, or
     * in what order.
     */
    static Rng
    substream(uint64_t seed, std::initializer_list<uint64_t> path)
    {
        uint64_t h = mix64(seed);
        for (uint64_t p : path)
            h = mix64(h ^ mix64(p));
        return Rng(h);
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[nextUint(i)]);
    }

    /** Draw k distinct indices from [0, n). @pre k <= n. */
    std::vector<size_t>
    sampleWithoutReplacement(size_t n, size_t k)
    {
        dtann_assert(k <= n, "sample larger than population");
        std::vector<size_t> idx(n);
        for (size_t i = 0; i < n; ++i)
            idx[i] = i;
        for (size_t i = 0; i < k; ++i)
            std::swap(idx[i], idx[i + nextUint(n - i)]);
        idx.resize(k);
        return idx;
    }

  private:
    /** MT19937-64, word for word std::mt19937_64 (see the class
     *  comment). */
    class Engine
    {
      public:
        using result_type = uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }

        /** Seeded as std::mt19937_64(seed). */
        explicit Engine(uint64_t seed);

        result_type
        operator()()
        {
            if (pos == kN)
                twist();
            uint64_t y = mt[pos++];
            y ^= (y >> 29) & 0x5555555555555555ULL;
            y ^= (y << 17) & 0x71d67fffeda60000ULL;
            y ^= (y << 37) & 0xfff7eee000000000ULL;
            return y ^ (y >> 43);
        }

      private:
        static constexpr size_t kN = 312;
        static constexpr size_t kM = 156;

        /** Replace all kN state words by the next block. */
        void twist();

        std::array<uint64_t, kN> mt;
        size_t pos;
    };

    Engine engine;
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    std::normal_distribution<double> gauss{0.0, 1.0};
};

} // namespace dtann

#endif // DTANN_COMMON_RNG_HH
