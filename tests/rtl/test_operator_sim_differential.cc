/**
 * @file
 * Differential suite: the cone-pruned scalar path and the 64-lane
 * batched path of OperatorSim must be bit-identical to the full
 * scalar relaxation sweep, for random transistor-level injections
 * on every operator shape the accelerator simulates — including
 * the stateless-vs-stateful fallback decision and the oscillation
 * flag.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ann/sigmoid.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {
namespace {

/**
 * Run @p trials random injections on @p nl. Per trial: evaluate a
 * random input sequence on the plain scalar Evaluator (no clean
 * model, full sweep — the reference semantics), then assert the
 * OperatorSim batch path (applyLanes) and cone-pruned scalar path
 * (apply) produce bit-identical outputs and the same oscillation
 * flag, and that the batch fallback decision matches
 * FaultSet::isStateless().
 */
void
runDifferential(std::shared_ptr<const Netlist> nl, CleanFn clean,
                int input_bits, int trials, size_t vectors,
                uint64_t seed)
{
    Rng rng(seed);
    int batched_trials = 0;
    for (int trial = 0; trial < trials; ++trial) {
        int defects = 1 + static_cast<int>(rng.nextUint(4));
        Injection inj = injectTransistorDefects(*nl, defects, rng);
        const bool stateless = inj.faults.isStateless();

        std::vector<uint64_t> in(vectors);
        for (auto &v : in)
            v = rng.nextUint(1ull << input_bits);

        // Reference: full scalar sweep over every gate.
        Evaluator ref(*nl, inj.faults);
        std::vector<uint64_t> want(vectors);
        for (size_t i = 0; i < vectors; ++i)
            want[i] = ref.evaluateBits(in[i]);
        const bool ref_osc = ref.lastOscillated();

        // Batched path (falls back to ordered scalar applies for
        // stateful fault sets / feedback netlists).
        Injection inj_lanes{inj.faults, inj.records};
        OperatorSim lanes(nl, std::move(inj_lanes), clean);
        EXPECT_EQ(lanes.batched(),
                  stateless && !nl->hasFeedback() && clean != nullptr)
            << "trial " << trial;
        std::vector<uint64_t> got(vectors);
        lanes.applyLanes(in.data(), got.data(), vectors);
        for (size_t i = 0; i < vectors; ++i)
            EXPECT_EQ(got[i], want[i])
                << "lanes trial " << trial << " vector " << in[i];
        EXPECT_EQ(lanes.lastOscillated(), ref_osc) << "trial " << trial;

        // Cone-pruned scalar path, one apply() per vector.
        Injection inj_scalar{inj.faults, inj.records};
        OperatorSim scalar(nl, std::move(inj_scalar), clean);
        EXPECT_EQ(scalar.conePruned(),
                  clean != nullptr && !nl->hasFeedback())
            << "trial " << trial;
        for (size_t i = 0; i < vectors; ++i)
            EXPECT_EQ(scalar.apply(in[i]), want[i])
                << "scalar trial " << trial << " vector " << in[i];
        EXPECT_EQ(scalar.lastOscillated(), ref_osc) << "trial " << trial;

        batched_trials += lanes.batched() ? 1 : 0;
    }
    // Both sides of the fallback decision must actually be
    // exercised on feedback-free shapes: transistor-level
    // reconstruction yields a mix of state-free and MEM behaviours.
    if (clean && !nl->hasFeedback()) {
        EXPECT_GT(batched_trials, 0);
        EXPECT_LT(batched_trials, trials);
    } else {
        EXPECT_EQ(batched_trials, 0);
    }
}

TEST(OperatorSimDifferential, RippleAdder24)
{
    auto nl = std::make_shared<Netlist>(
        buildRippleAdder(24, FaStyle::Nand9, false));
    runDifferential(nl, cleanAdder(24, false), 48, 200, 24, 101);
}

TEST(OperatorSimDifferential, MultiplierSigned16)
{
    auto nl = std::make_shared<Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    runDifferential(nl, cleanMultiplierSigned(16), 32, 200, 16, 202);
}

TEST(OperatorSimDifferential, SigmoidUnit)
{
    auto nl = std::make_shared<Netlist>(
        buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9));
    runDifferential(nl, cleanSigmoidUnit(logisticPwlTable()), 16, 200,
                    24, 303);
}

TEST(OperatorSimDifferential, LatchRegister16)
{
    // Feedback netlist: no clean model, no pruning, no batching —
    // applyLanes must fall back to ordered scalar applies so latch
    // state evolves exactly as the reference.
    auto nl =
        std::make_shared<Netlist>(buildLatchRegister(16));
    ASSERT_TRUE(nl->hasFeedback());
    runDifferential(nl, CleanFn{}, 17, 200, 24, 404);
}

TEST(OperatorSimDifferential, EnvKnobsForceSlowPaths)
{
    // DTANN_NO_BATCH is the equivalence-testing escape hatch, and a
    // sim without a clean model runs unpruned: both must force the
    // fallback paths without changing a single output bit.
    auto nl = std::make_shared<Netlist>(
        buildMultiplierUnsigned(8, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierUnsigned(8);
    Rng rng(55);
    FaultSet faults;
    faults.stuckAt.push_back(
        {static_cast<uint32_t>(rng.nextUint(nl->numGates())), -1, true});
    ASSERT_TRUE(faults.isStateless());

    std::vector<uint64_t> in(96);
    for (auto &v : in)
        v = rng.nextUint(1ull << 16);
    std::vector<uint64_t> want(in.size());
    {
        OperatorSim fast(nl, Injection{faults, {}}, clean);
        ASSERT_TRUE(fast.batched());
        ASSERT_TRUE(fast.conePruned());
        fast.applyLanes(in.data(), want.data(), in.size());
    }

    setenv("DTANN_NO_BATCH", "1", 1);
    {
        OperatorSim sim(nl, Injection{faults, {}}, clean);
        EXPECT_FALSE(sim.batched());
        EXPECT_TRUE(sim.conePruned());
        std::vector<uint64_t> got(in.size());
        sim.applyLanes(in.data(), got.data(), in.size());
        EXPECT_EQ(got, want);
    }
    {
        OperatorSim sim(nl, Injection{faults, {}}, CleanFn{});
        EXPECT_FALSE(sim.batched());
        EXPECT_FALSE(sim.conePruned());
        std::vector<uint64_t> got(in.size());
        sim.applyLanes(in.data(), got.data(), in.size());
        EXPECT_EQ(got, want);
    }
    unsetenv("DTANN_NO_BATCH");
    {
        OperatorSim sim(nl, Injection{faults, {}}, CleanFn{});
        EXPECT_TRUE(sim.batched());
        EXPECT_FALSE(sim.conePruned());
        std::vector<uint64_t> got(in.size());
        sim.applyLanes(in.data(), got.data(), in.size());
        EXPECT_EQ(got, want);
    }
}

TEST(OperatorSimDifferential, BitIdenticalAcrossLaneWidths)
{
    // The DTANN_LANES knob must never change results: sweep every
    // supported plane width (and auto) against the 64-lane oracle
    // on the same stateless injection.
    auto nl = std::make_shared<Netlist>(
        buildMultiplierUnsigned(6, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierUnsigned(6);
    Rng rng(77);
    Injection inj = injectTransistorDefects(*nl, 2, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(*nl, 2, rng);

    std::vector<uint64_t> in(300);
    for (auto &v : in)
        v = rng.nextUint(1ull << 12);

    auto runAt = [&](const char *lanes, size_t expect_width) {
        if (lanes)
            setenv("DTANN_LANES", lanes, 1);
        else
            unsetenv("DTANN_LANES");
        Injection copy{inj.faults, inj.records};
        OperatorSim sim(nl, std::move(copy), clean);
        EXPECT_TRUE(sim.batched());
        if (expect_width > 0) {
            EXPECT_EQ(sim.laneCount(), expect_width);
        }
        std::vector<uint64_t> out(in.size());
        sim.applyLanes(in.data(), out.data(), in.size());
        unsetenv("DTANN_LANES");
        return out;
    };
    auto oracle = runAt("64", 64);
    EXPECT_EQ(runAt("256", 256), oracle);
    EXPECT_EQ(runAt("512", 512), oracle);
    EXPECT_EQ(runAt(nullptr, 0), oracle); // auto width
}

TEST(OperatorSimDifferential, CountersAccountForEveryVector)
{
    auto nl = std::make_shared<Netlist>(
        buildMultiplierUnsigned(6, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierUnsigned(6);
    FaultSet faults;
    faults.stuckAt.push_back({3, -1, false});

    OperatorSim sim(nl, Injection{faults, {}}, clean);
    ASSERT_TRUE(sim.batched());
    std::vector<uint64_t> in(130, 5), out(130);
    sim.applyLanes(in.data(), out.data(), in.size());
    uint64_t scalar_one = sim.apply(5);
    EXPECT_EQ(scalar_one, out[0]);

    SimCounters c = sim.counters();
    EXPECT_EQ(c.batchVectors, 130u);
    EXPECT_EQ(c.scalarVectors, 1u);
    EXPECT_EQ(c.vectors(), 131u);
    // Sweep accounting follows the configured lane width: 130
    // vectors need ceil(130 / width) kernel passes of width slots.
    size_t width = sim.laneCount();
    ASSERT_GT(width, 0u);
    uint64_t sweeps = (130 + width - 1) / width;
    EXPECT_EQ(c.batchSweeps, sweeps);
    EXPECT_EQ(c.batchLaneSlots, sweeps * width);
    EXPECT_GT(c.gateEvals, 0u);
    EXPECT_NEAR(c.laneOccupancy(),
                130.0 / static_cast<double>(sweeps * width), 1e-12);
    EXPECT_LT(c.scalarFallbackRate(), 0.01);
}

TEST(OperatorSimDifferential, ShortCallsTakeTheScalarPath)
{
    // Below kLaneCrossover vectors a batched sim walks the call
    // through apply(): same outputs, charged as scalar vectors. At
    // the crossover the plane sweep takes over.
    auto nl = std::make_shared<Netlist>(
        buildMultiplierUnsigned(6, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierUnsigned(6);
    FaultSet faults;
    faults.stuckAt.push_back({3, -1, false});
    const size_t n = OperatorSim::kLaneCrossover;
    ASSERT_GE(n, 2u);

    Rng rng(21);
    std::vector<uint64_t> in(n);
    for (auto &v : in)
        v = rng.nextUint(1ull << 12);
    for (size_t count : {size_t{1}, n - 1}) {
        SCOPED_TRACE("count " + std::to_string(count));
        OperatorSim sim(nl, Injection{faults, {}}, clean);
        OperatorSim ref(nl, Injection{faults, {}}, clean);
        ASSERT_TRUE(sim.batched());
        std::vector<uint64_t> out(count);
        sim.applyLanes(in.data(), out.data(), count);
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(out[i], ref.apply(in[i])) << "vector " << i;
        SimCounters c = sim.counters();
        EXPECT_EQ(c.scalarVectors, count);
        EXPECT_EQ(c.batchVectors, 0u);
        EXPECT_EQ(c.batchSweeps, 0u);
        EXPECT_EQ(c.gateEvals, ref.counters().gateEvals);
    }

    OperatorSim sim(nl, Injection{faults, {}}, clean);
    OperatorSim ref(nl, Injection{faults, {}}, clean);
    std::vector<uint64_t> out(n);
    sim.applyLanes(in.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], ref.apply(in[i])) << "vector " << i;
    SimCounters c = sim.counters();
    EXPECT_EQ(c.scalarVectors, 0u);
    EXPECT_EQ(c.batchVectors, n);
    EXPECT_EQ(c.batchSweeps, 1u);
}

} // namespace
} // namespace dtann
