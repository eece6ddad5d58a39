/**
 * @file
 * Tests for the wide-lane batch evaluator and its transposed lane
 * packing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "circuit/batch_evaluator.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/multiplier.hh"

namespace dtann {
namespace {

TEST(BatchEvaluator, MatchesScalarEvaluatorExhaustively)
{
    Netlist nl = buildRippleAdder(4, FaStyle::Nand9, true);
    Evaluator scalar(nl);
    BatchEvaluator batch(nl);

    std::vector<uint64_t> vectors;
    for (uint64_t v = 0; v < 256; ++v) {
        vectors.push_back(v);
        if (vectors.size() == 64 || v == 255) {
            auto outs = batch.evaluateVectors(vectors);
            for (size_t l = 0; l < vectors.size(); ++l)
                EXPECT_EQ(outs[l], scalar.evaluateBits(vectors[l]))
                    << "vector " << vectors[l];
            vectors.clear();
        }
    }
}

TEST(BatchEvaluator, AllGateKindsViaMirrorMultiplier)
{
    // The mirror multiplier exercises CarryN/MirrorSumN plus the
    // basic kinds; random vectors must agree with the scalar path.
    Netlist nl = buildMultiplierSigned(6, FaStyle::Mirror);
    Evaluator scalar(nl);
    BatchEvaluator batch(nl);
    Rng rng(3);
    std::vector<uint64_t> vectors;
    for (int i = 0; i < 64; ++i)
        vectors.push_back(rng.nextUint(1ull << 12));
    auto outs = batch.evaluateVectors(vectors);
    for (size_t l = 0; l < vectors.size(); ++l)
        EXPECT_EQ(outs[l], scalar.evaluateBits(vectors[l]));
}

TEST(BatchEvaluator, LaneIndependence)
{
    // Changing one lane's input must not affect other lanes.
    Netlist nl = buildRippleAdder(8, FaStyle::Nand9, false);
    BatchEvaluator batch(nl);
    std::vector<uint64_t> base(10, 0x0101);
    auto ref = batch.evaluateVectors(base);
    std::vector<uint64_t> tweaked = base;
    tweaked[4] = 0xff7f;
    auto got = batch.evaluateVectors(tweaked);
    for (size_t l = 0; l < base.size(); ++l) {
        if (l == 4)
            EXPECT_NE(got[l], ref[l]);
        else
            EXPECT_EQ(got[l], ref[l]);
    }
}

TEST(BatchEvaluator, TryCreateRejectsFeedbackNetlists)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId loop = nl.addNet();
    NetId q = nl.addGate(GateKind::Nand2, {a, loop});
    nl.addGateOnto(GateKind::Not, {q}, loop);
    nl.markOutput(q);

    // Recoverable: callers probe with supports()/tryCreate() and
    // fall back to the scalar evaluator instead of dying.
    const char *why = nullptr;
    EXPECT_FALSE(BatchEvaluator::supports(nl, {}, &why));
    ASSERT_NE(why, nullptr);
    EXPECT_NE(std::string(why).find("feedback"), std::string::npos);
    EXPECT_FALSE(BatchEvaluator::tryCreate(nl).has_value());
}

TEST(BatchEvaluator, TryCreateRejectsStatefulFaultSets)
{
    Netlist nl = buildRippleAdder(4, FaStyle::Nand9, true);

    FaultSet delayed;
    delayed.delayed.insert(0);
    EXPECT_FALSE(delayed.isStateless());
    const char *why = nullptr;
    EXPECT_FALSE(BatchEvaluator::supports(nl, delayed, &why));
    ASSERT_NE(why, nullptr);
    EXPECT_NE(std::string(why).find("stateful"), std::string::npos);
    EXPECT_FALSE(BatchEvaluator::tryCreate(nl, delayed).has_value());

    // A MEM truth-table entry also makes the set stateful.
    FaultSet mem;
    int arity = nl.gate(0).arity();
    mem.overrides[0] = GateFunction(arity, 0, 1); // combo 0 floats
    EXPECT_FALSE(mem.isStateless());
    EXPECT_FALSE(BatchEvaluator::tryCreate(nl, mem).has_value());

    // Stuck-ats and MEM-free overrides are state-free and accepted.
    FaultSet stateless;
    stateless.stuckAt.push_back({0, -1, true});
    stateless.overrides[1] =
        GateFunction::fromGateKind(nl.gate(1).kind);
    EXPECT_TRUE(stateless.isStateless());
    EXPECT_TRUE(BatchEvaluator::tryCreate(nl, stateless).has_value());
}

TEST(BatchEvaluator, FaultyLanesMatchScalarEvaluator)
{
    Netlist nl = buildMultiplierUnsigned(4, FaStyle::Nand9);
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        // Random state-free fault set: stuck-ats plus a wrong-
        // function override.
        FaultSet faults;
        uint32_t g1 = static_cast<uint32_t>(
            rng.nextUint(nl.numGates()));
        faults.stuckAt.push_back(
            {g1, static_cast<int8_t>(-1), rng.nextUint(2) == 1});
        uint32_t g2 = static_cast<uint32_t>(
            rng.nextUint(nl.numGates()));
        int in_idx =
            static_cast<int>(rng.nextUint(
                static_cast<uint64_t>(nl.gate(g2).arity())));
        faults.stuckAt.push_back(
            {g2, static_cast<int8_t>(in_idx), rng.nextUint(2) == 1});
        uint32_t g3 = static_cast<uint32_t>(
            rng.nextUint(nl.numGates()));
        int arity = nl.gate(g3).arity();
        faults.overrides[g3] = GateFunction(
            arity,
            static_cast<uint32_t>(rng.nextUint(1ull << (1 << arity))),
            0);
        ASSERT_TRUE(faults.isStateless());

        Evaluator scalar(nl, faults);
        auto batch = BatchEvaluator::tryCreate(nl, faults);
        ASSERT_TRUE(batch.has_value());

        std::vector<uint64_t> vectors(64);
        for (auto &v : vectors)
            v = rng.nextUint(1ull << 8);
        auto outs = batch->evaluateVectors(vectors);
        for (size_t l = 0; l < vectors.size(); ++l)
            EXPECT_EQ(outs[l], scalar.evaluateBits(vectors[l]))
                << "trial " << trial << " vector " << vectors[l];
    }
}

TEST(BatchEvaluator, ConstantsDriveAllLanes)
{
    Netlist nl;
    NetId one = nl.constNet(true);
    NetId zero = nl.constNet(false);
    NetId a = nl.addNet();
    nl.markInput(a);
    nl.markOutput(nl.addGate(GateKind::Nand2, {one, a}));
    nl.markOutput(nl.addGate(GateKind::Nor2, {zero, a}));
    for (size_t lanes : {64u, 256u, 512u}) {
        BatchEvaluator batch(nl, {}, {}, lanes);
        std::vector<uint64_t> in(lanes);
        for (size_t l = 0; l < lanes; ++l)
            in[l] = l >> 3 & 1;
        auto out = batch.evaluateVectors(in);
        for (size_t l = 0; l < lanes; ++l)
            ASSERT_EQ(out[l], in[l] ? 0u : 3u) // both !a
                << "lanes " << lanes << " lane " << l;
    }
}

TEST(BatchEvaluator, EveryGateKindUnderStackedFaults)
{
    // One gate of every kind on the primary inputs of a hand-built
    // netlist (no cell index, so every op is a gate op), each gate's
    // output a primary output. Each fault set below puts one case on
    // every gate at once; the gates read only primary inputs, so
    // they cannot disturb each other.
    Netlist nl;
    NetId in[4];
    for (NetId &net : in) {
        net = nl.addNet();
        nl.markInput(net);
    }
    std::vector<uint32_t> gates;
    for (size_t k = 0; k < static_cast<size_t>(GateKind::NumKinds); ++k) {
        GateKind kind = static_cast<GateKind>(k);
        std::vector<NetId> pins(in, in + gateArity(kind));
        gates.push_back(static_cast<uint32_t>(nl.numGates()));
        nl.markOutput(nl.addGate(kind, pins));
    }
    ASSERT_EQ(nl.cellIndex(), nullptr);

    Rng rng(27);
    auto override_of = [&](uint32_t gi) {
        int arity = nl.gate(gi).arity();
        return GateFunction(
            arity,
            static_cast<uint32_t>(rng.nextUint(1ull << (1 << arity))), 0);
    };
    std::vector<std::pair<std::string, FaultSet>> cases;
    cases.push_back({"clean", {}});
    for (int8_t i = 0; i < 4; ++i) {
        for (bool v : {false, true}) {
            FaultSet f;
            for (uint32_t gi : gates)
                if (i < nl.gate(gi).arity())
                    f.stuckAt.push_back({gi, i, v});
            cases.push_back({"input " + std::to_string(i) + " stuck at " +
                                 std::to_string(v),
                             f});
        }
    }
    for (bool v : {false, true}) {
        FaultSet f;
        for (uint32_t gi : gates)
            f.stuckAt.push_back({gi, -1, v});
        cases.push_back({"output stuck at " + std::to_string(v), f});
    }
    for (int trial = 0; trial < 8; ++trial) {
        FaultSet over, stacked;
        for (uint32_t gi : gates) {
            over.overrides[gi] = override_of(gi);
            int arity = nl.gate(gi).arity();
            if (arity > 0)
                stacked.stuckAt.push_back(
                    {gi, static_cast<int8_t>(rng.nextUint(
                             static_cast<uint64_t>(arity))),
                     rng.nextUint(2) == 1});
            stacked.overrides[gi] = override_of(gi);
            stacked.stuckAt.push_back({gi, -1, rng.nextUint(2) == 1});
        }
        cases.push_back({"override " + std::to_string(trial), over});
        // Output stuck-ats only on odd trials, so the input stuck-at
        // under an override shows at the outputs on the even ones.
        if (trial % 2 == 0)
            stacked.stuckAt.erase(
                std::remove_if(stacked.stuckAt.begin(),
                               stacked.stuckAt.end(),
                               [](const StuckAtFault &f) {
                                   return f.input < 0;
                               }),
                stacked.stuckAt.end());
        cases.push_back({"stacked " + std::to_string(trial), stacked});
    }

    for (const auto &[name, faults] : cases) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(faults.isStateless());
        Evaluator scalar(nl, faults);
        uint64_t want[16];
        for (uint64_t v = 0; v < 16; ++v)
            want[v] = scalar.evaluateBits(v);
        for (size_t lanes : {64u, 256u, 512u}) {
            BatchEvaluator batch(nl, faults, {}, lanes);
            // Every block of 16 lanes holds all 16 combinations,
            // rotated by the block number.
            std::vector<uint64_t> vectors(lanes);
            for (size_t l = 0; l < lanes; ++l)
                vectors[l] = (l + l / 16) % 16;
            auto out = batch.evaluateVectors(vectors);
            for (size_t l = 0; l < lanes; ++l)
                ASSERT_EQ(out[l], want[vectors[l]])
                    << "lanes " << lanes << " lane " << l;
        }
    }
}

TEST(BatchEvaluator, EvaluatorsOnOneThreadShareNoState)
{
    // Every evaluator on a thread sweeps the same scratch planes, so
    // calls of a faulty multiplier and a clean adder (different
    // netlists, different sizes) alternate here, each against its
    // scalar evaluator, at every plane width.
    Netlist mul = buildMultiplierSigned(16, FaStyle::Nand9);
    Netlist add = buildRippleAdder(8, FaStyle::Mirror, true);
    Rng rng(44);
    Injection inj = injectTransistorDefects(mul, 2, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(mul, 2, rng);
    Evaluator mul_scalar(mul, inj.faults, cleanMultiplierSigned(16));
    Evaluator add_scalar(add);
    for (size_t lanes : {64u, 256u, 512u}) {
        BatchEvaluator mul_batch(mul, inj.faults, cleanMultiplierSigned(16),
                                 lanes);
        BatchEvaluator add_batch(add, {}, {}, lanes);
        for (int call = 0; call < 6; ++call) {
            bool on_mul = call % 2 == 0;
            std::vector<uint64_t> in(lanes - 5 * static_cast<size_t>(call));
            for (uint64_t &v : in)
                v = rng.nextUint(1ull << (on_mul ? 32 : 16));
            auto out = (on_mul ? mul_batch : add_batch).evaluateVectors(in);
            Evaluator &scalar = on_mul ? mul_scalar : add_scalar;
            for (size_t l = 0; l < in.size(); ++l)
                ASSERT_EQ(out[l], scalar.evaluateBits(in[l]))
                    << "lanes " << lanes << " call " << call << " lane "
                    << l;
        }
    }
}

TEST(BatchEvaluator, TransposeMatchesBitLoop)
{
    Rng rng(64);
    for (int trial = 0; trial < 20; ++trial) {
        uint64_t m[64], want[64] = {};
        for (uint64_t &row : m)
            row = trial == 0 ? 0 : trial == 1 ? ~0ull : rng.nextUint(~0ull);
        if (trial == 2)
            for (size_t r = 0; r < 64; ++r)
                m[r] = 1ull << r; // identity
        for (size_t r = 0; r < 64; ++r)
            for (size_t c = 0; c < 64; ++c)
                want[c] |= (m[r] >> c & 1) << r;
        transpose64(m);
        for (size_t r = 0; r < 64; ++r)
            ASSERT_EQ(m[r], want[r]) << "trial " << trial << " row " << r;
    }
}

TEST(BatchEvaluator, LanesMatchScalarAtEveryCount)
{
    // evaluateLanes() against one scalar evaluateBits() per vector,
    // at lane counts around every block edge, at each plane width,
    // clean and faulty, cone-pruned and with CleanFn{}. One
    // evaluator serves the whole count sequence, so plane words a
    // longer call left behind must not leak into a shorter one, and
    // no call may write past its count.
    struct Unit
    {
        std::string name;
        Netlist nl;
        CleanFn clean;
        int inputBits;
    };
    std::vector<Unit> units;
    units.push_back({"multiplier", buildMultiplierSigned(16, FaStyle::Nand9),
                     cleanMultiplierSigned(16), 32});
    units.push_back({"adder31", buildRippleAdder(31, FaStyle::Mirror, true),
                     cleanAdder(31, true), 62});
    const size_t counts[] = {1,   2,   63,  64,  65,  127, 150,
                             255, 256, 257, 511, 512};
    Rng rng(150);
    for (const char *lanes : {"64", "256", "512"}) {
        setenv("DTANN_LANES", lanes, 1);
        for (const Unit &u : units) {
            Injection inj = injectTransistorDefects(u.nl, 3, rng);
            while (!inj.faults.isStateless())
                inj = injectTransistorDefects(u.nl, 3, rng);
            for (bool faulty : {false, true}) {
                for (bool pruned : {false, true}) {
                    SCOPED_TRACE(std::string("DTANN_LANES=") + lanes + " " +
                                 u.name + (faulty ? " faulty" : " clean") +
                                 (pruned ? " pruned" : " CleanFn{}"));
                    FaultSet faults = faulty ? inj.faults : FaultSet{};
                    CleanFn clean = pruned ? u.clean : CleanFn{};
                    Evaluator scalar(u.nl, faults, clean);
                    BatchEvaluator batch(u.nl, faults, clean,
                                         batchLaneWidth());
                    ASSERT_EQ(batch.conePruned(), faulty && pruned);
                    for (size_t count : counts) {
                        if (count > batch.laneCount())
                            continue;
                        SCOPED_TRACE("count " + std::to_string(count));
                        std::vector<uint64_t> in(count);
                        for (uint64_t &v : in)
                            v = rng.nextUint(1ull << u.inputBits);
                        std::vector<uint64_t> out(count + 1, 0xdeadbeef);
                        batch.evaluateLanes(in.data(), out.data(), count);
                        for (size_t l = 0; l < count; ++l)
                            ASSERT_EQ(out[l], scalar.evaluateBits(in[l]))
                                << "lane " << l;
                        ASSERT_EQ(out[count], 0xdeadbeefu);
                    }
                }
            }
        }
    }
    unsetenv("DTANN_LANES");
}

} // namespace
} // namespace dtann
