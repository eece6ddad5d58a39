/**
 * @file
 * OperatorSims built over one shared const Netlist from several
 * threads: injection, construction (fault cone, folded program with
 * cell ops, memo) and apply() read the netlist's precomputed facts
 * (hasFeedback(), the cell index) only, so concurrent use is
 * race-free (checked under -DDTANN_SANITIZE=thread via
 * `ctest -L tsan`) and every thread gets the serial result. Backends
 * built from several threads at once share the process-wide
 * operatorNetlists() set from its first use on.
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hh"
#include "core/backend.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_netlists.hh"
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

/**
 * Build both backends on @p style's shared netlists, inject defects
 * into one unit of each kind, read every unit through its BIST port
 * and run an OperatorSim on the shared multiplier directly; returns
 * a digest of every result.
 */
uint64_t
runBackendWorker(FaStyle style, uint64_t seed)
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    cfg.faStyle = style;
    uint64_t digest = seed;
    auto mix = [&](uint64_t v) { digest = (digest ^ v) * 0x100000001b3ull; };
    for (BackendKind kind : {BackendKind::Spatial, BackendKind::Systolic}) {
        auto backend = makeBackend(kind, cfg, {12, 4, 3});
        Rng rng(seed);
        for (UnitKind unit : {UnitKind::WeightLatch, UnitKind::Multiplier,
                              UnitKind::AdderStage, UnitKind::Activation}) {
            int index = unit == UnitKind::Activation ? 0 : 2;
            backend->injectDefects({unit, Layer::Hidden, 1, index}, 3, rng);
        }
        for (int v = 0; v < 40; ++v) {
            Fix16 w = Fix16::fromRaw(static_cast<int16_t>(v * 977 - 9000));
            Fix16 x = Fix16::fromRaw(static_cast<int16_t>(v * 353 + 17));
            mix(static_cast<uint16_t>(
                backend->bistMul(Layer::Hidden, 1, 2, w, x).raw()));
            mix(backend->bistAdd(Layer::Hidden, 1, 2, Acc24::fromFix16(w),
                                 Acc24::fromFix16(x))
                    .bits());
            mix(static_cast<uint16_t>(
                backend->bistAct(Layer::Hidden, 1, x).raw()));
            mix(static_cast<uint16_t>(
                backend->bistLatchStore(Layer::Hidden, 1, 2, w).raw()));
        }
        mix(backend->simCounters().gateEvals);
    }
    const OperatorNetlists &set = operatorNetlists(style);
    mix(runWorker(set.multiplier, cleanMultiplierSigned(16), seed));
    return digest;
}

TEST(OperatorSimThreads, BackendsShareTheNetlistSetFromFirstUse)
{
    // Threads first: in its own process (as ctest runs each test)
    // the set is first built inside them, concurrently.
    constexpr int threads = 4;
    auto style = [](int t) {
        return t % 2 ? FaStyle::Mirror : FaStyle::Nand9;
    };
    std::vector<uint64_t> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            got[static_cast<size_t>(t)] = runBackendWorker(
                style(t), 200 + static_cast<uint64_t>(t));
        });
    }
    for (auto &th : pool)
        th.join();

    std::vector<uint64_t> want(threads);
    for (int t = 0; t < threads; ++t)
        want[static_cast<size_t>(t)] =
            runBackendWorker(style(t), 200 + static_cast<uint64_t>(t));
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace dtann
