#include "hostref.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

volatile uint64_t sink;

double
onePass()
{
    constexpr size_t kWords = 4096;
    constexpr int kRounds = 2500;
    std::vector<uint64_t> v(kWords);
    uint64_t x = 88172645463325252ull, acc = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r)
        for (size_t i = 0; i < kWords; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint64_t a = v[i], b = v[(i * 7 + static_cast<size_t>(r)) %
                                     kWords];
            v[i] = (a & b) ^ (~a | x) ^ (b >> 3);
            acc += v[i] & 1;
        }
    sink = acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

double
hostRefSeconds(int reps)
{
    double best = onePass();
    for (int i = 1; i < reps; ++i)
        best = std::min(best, onePass());
    return best;
}

} // namespace perfbench
