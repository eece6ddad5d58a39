/**
 * @file
 * OperatorSims built over one shared const Netlist from several
 * threads: injection, construction (fault cone, folded program,
 * memo) and apply() read the netlist's precomputed facts only, so
 * concurrent use is race-free (checked under -DDTANN_SANITIZE=thread
 * via `ctest -L tsan`) and every thread gets the serial result.
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"

namespace dtann {
namespace {

/** Inject, build, and run a trainer-like cycling stream; returns a
 *  digest of every output and the final counters. */
uint64_t
runWorker(const std::shared_ptr<const Netlist> &nl, const CleanFn &clean,
          uint64_t seed)
{
    Rng rng(seed);
    uint64_t digest = seed;
    for (int sim_index = 0; sim_index < 4; ++sim_index) {
        int defects = 1 + static_cast<int>(rng.nextUint(3));
        Injection inj = injectTransistorDefects(*nl, defects, rng);
        OperatorSim sim(nl, std::move(inj), clean);
        std::vector<uint64_t> cycle(12);
        for (auto &v : cycle)
            v = rng.nextUint(1ull << 32);
        for (int i = 0; i < 150; ++i) {
            uint64_t out =
                sim.apply(cycle[static_cast<size_t>(i) % cycle.size()]);
            digest = (digest ^ out) * 0x100000001b3ull;
        }
        std::vector<uint64_t> outs(cycle.size());
        sim.applyLanes(cycle.data(), outs.data(), cycle.size());
        for (uint64_t out : outs)
            digest = (digest ^ out) * 0x100000001b3ull;
        SimCounters c = sim.counters();
        digest ^= c.gateEvals + 31 * c.memoHits;
    }
    return digest;
}

TEST(OperatorSimThreads, SharedConstNetlistAcrossThreads)
{
    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierSigned(16);
    constexpr int threads = 4;

    std::vector<uint64_t> want(threads);
    for (int t = 0; t < threads; ++t)
        want[static_cast<size_t>(t)] =
            runWorker(nl, clean, 100 + static_cast<uint64_t>(t));

    std::vector<uint64_t> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            got[static_cast<size_t>(t)] =
                runWorker(nl, clean, 100 + static_cast<uint64_t>(t));
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace dtann
