/**
 * @file
 * Differential tests: the folded op-program Evaluator against the
 * per-gate reference interpreter (tests/circuit/reference_evaluator).
 *
 * Every case drives the same vector stream through both and
 * compares the outputs, lastOscillated() and gateEvals() after every
 * evaluation, so fold precedence (input stuck-at, then override,
 * then output stuck-at; MEM skips the force; delayed gates latch
 * from the un-forced table) and the pruned/full sweep accounting
 * are checked independently of the implementation under test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ann/sigmoid.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "reference_evaluator.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {
namespace {

/** Drive @p vectors random input vectors through both evaluators. */
void
expectSameStream(const Netlist &nl, const FaultSet &faults,
                 const CleanFn &clean, Rng &rng, int vectors,
                 const std::string &label)
{
    Evaluator ev(nl, faults, clean);
    ReferenceEvaluator ref(nl, faults, clean);
    ASSERT_EQ(ev.conePruned(), ref.conePruned()) << label;
    size_t n_in = nl.inputs().size();
    uint64_t mask = n_in >= 64 ? ~0ull : (1ull << n_in) - 1;
    for (int v = 0; v < vectors; ++v) {
        uint64_t in = rng.nextUint(UINT64_MAX) & mask;
        ASSERT_EQ(ev.evaluateBits(in), ref.evaluateBits(in))
            << label << " vector " << v;
        ASSERT_EQ(ev.lastOscillated(), ref.lastOscillated())
            << label << " vector " << v;
        ASSERT_EQ(ev.gateEvals(), ref.gateEvals())
            << label << " vector " << v;
    }
    ev.reset();
    ref.reset();
    for (int v = 0; v < 8; ++v) {
        uint64_t in = rng.nextUint(UINT64_MAX) & mask;
        ASSERT_EQ(ev.evaluateBits(in), ref.evaluateBits(in))
            << label << " after reset, vector " << v;
    }
}

/** Random stacked faults on random gates: override (with MEM
 *  entries), delay, and input/output stuck-ats, overlapping. */
FaultSet
randomStackedFaults(const Netlist &nl, int gates, Rng &rng)
{
    FaultSet f;
    for (int k = 0; k < gates; ++k) {
        uint32_t gi = static_cast<uint32_t>(rng.nextUint(nl.numGates()));
        int arity = nl.gate(gi).arity();
        uint32_t all = (1u << (1u << arity)) - 1; // one bit per row
        if (rng.nextBool())
            f.overrides[gi] = GateFunction(
                arity, static_cast<uint32_t>(rng.nextUint(all + 1ull)),
                static_cast<uint32_t>(rng.nextUint(all + 1ull)) &
                    static_cast<uint32_t>(rng.nextUint(all + 1ull)));
        if (rng.nextBool(0.3))
            f.delayed.insert(gi);
        if (arity > 0 && rng.nextBool(0.4))
            f.stuckAt.push_back(
                {gi, static_cast<int8_t>(rng.nextUint(
                         static_cast<uint64_t>(arity))),
                 rng.nextBool()});
        if (rng.nextBool(0.3))
            f.stuckAt.push_back({gi, -1, rng.nextBool()});
    }
    return f;
}

TEST(EvaluatorDifferential, TransistorInjectionsOnArithmeticUnits)
{
    struct Unit
    {
        const char *name;
        Netlist nl;
        CleanFn clean;
    };
    std::vector<Unit> units;
    units.push_back({"mult", buildMultiplierSigned(16, FaStyle::Nand9),
                     cleanMultiplierSigned(16)});
    units.push_back({"adder", buildRippleAdder(24, FaStyle::Mirror, false),
                     cleanAdder(24, false)});
    units.push_back({"sigmoid",
                     buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9),
                     cleanSigmoidUnit(logisticPwlTable())});
    Rng rng(0x5171);
    for (const Unit &u : units) {
        for (int trial = 0; trial < 12; ++trial) {
            int count = 1 + static_cast<int>(rng.nextUint(5));
            Injection inj = injectTransistorDefects(u.nl, count, rng);
            std::string label = std::string(u.name) + " trial " +
                std::to_string(trial);
            // Cone-pruned (clean model given) and full sweep.
            expectSameStream(u.nl, inj.faults, u.clean, rng, 60,
                             label + " cone");
            expectSameStream(u.nl, inj.faults, CleanFn{}, rng, 20,
                             label + " full");
        }
    }
}

TEST(EvaluatorDifferential, TransistorInjectionsOnLatchRegister)
{
    Netlist nl = buildLatchRegister(16);
    ASSERT_TRUE(nl.hasFeedback());
    Rng rng(0x1a7c);
    for (int trial = 0; trial < 30; ++trial) {
        Injection inj = injectTransistorDefects(
            nl, 1 + static_cast<int>(rng.nextUint(4)), rng);
        expectSameStream(nl, inj.faults, CleanFn{}, rng, 40,
                         "latch trial " + std::to_string(trial));
    }
}

TEST(EvaluatorDifferential, StackedFaultsOnRealNetlists)
{
    Rng rng(0xface);
    Netlist mult = buildMultiplierSigned(8, FaStyle::Mirror);
    Netlist latch = buildLatchRegister(8);
    for (int trial = 0; trial < 40; ++trial) {
        std::string t = std::to_string(trial);
        FaultSet fm = randomStackedFaults(mult, 6, rng);
        expectSameStream(mult, fm, cleanMultiplierSigned(8), rng, 30,
                         "mult cone " + t);
        expectSameStream(mult, fm, CleanFn{}, rng, 10, "mult full " + t);
        FaultSet fl = randomStackedFaults(latch, 3, rng);
        expectSameStream(latch, fl, CleanFn{}, rng, 20, "latch " + t);
    }
}

TEST(EvaluatorDifferential, HandBuiltStackedGate)
{
    // One NAND2 between two inputs and the output, with every fault
    // kind stacked on it: input 1 stuck at 1, a MEM-bearing
    // override, an output stuck-at 0, and a one-evaluation delay.
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.markInput(a);
    nl.markInput(b);
    NetId n = nl.addGate(GateKind::Nand2, {a, b});
    NetId out = nl.addGate(GateKind::Not, {n});
    nl.markOutput(n);
    nl.markOutput(out);

    // Override rows (ba): 00 -> 1, 01 -> MEM, 10 -> 0, 11 -> MEM.
    GateFunction fn(2, 0b0001, 0b1010);
    for (int mask = 0; mask < 16; ++mask) {
        FaultSet f;
        f.overrides[0] = fn;
        if (mask & 1)
            f.stuckAt.push_back({0, 1, true});
        if (mask & 2)
            f.stuckAt.push_back({0, -1, false});
        if (mask & 4)
            f.delayed.insert(0);
        if (mask & 8) {
            f.stuckAt.push_back({1, 0, true}); // downstream gate too
            f.delayed.insert(1);
        }
        Rng rng(static_cast<uint64_t>(mask) + 1);
        expectSameStream(nl, f, CleanFn{}, rng, 40,
                         "mask " + std::to_string(mask));
    }
}

TEST(EvaluatorDifferential, MemEntrySkipsOutputForce)
{
    // Pinned precedence: a MEM row keeps the previous value even
    // under an output stuck-at; non-MEM rows take the force.
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    nl.markOutput(nl.addGate(GateKind::Not, {a}));
    FaultSet f;
    f.overrides[0] = GateFunction(1, 0b00, 0b10); // in=1 -> MEM
    f.stuckAt.push_back({0, -1, true});
    Evaluator ev(nl, f);
    ReferenceEvaluator ref(nl, f);
    EXPECT_EQ(ev.evaluateBits(1), 0u); // MEM: reset value survives
    EXPECT_EQ(ref.evaluateBits(1), 0u);
    EXPECT_EQ(ev.evaluateBits(0), 1u); // forced
    EXPECT_EQ(ref.evaluateBits(0), 1u);
    EXPECT_EQ(ev.evaluateBits(1), 1u); // MEM: keeps the forced 1
    EXPECT_EQ(ref.evaluateBits(1), 1u);
}

TEST(EvaluatorDifferential, ForcedDelayedGateFeedsDelayedGate)
{
    // A delayed inverter with its output stuck at 1 drives the
    // force every round (its stored value is never visible); a
    // second delayed gate reading it latches from the forced net.
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId x = nl.addGate(GateKind::Not, {a});
    NetId y = nl.addGate(GateKind::Not, {x});
    nl.markOutput(x);
    nl.markOutput(y);
    FaultSet f;
    f.delayed.insert(0);
    f.delayed.insert(1);
    f.stuckAt.push_back({0, -1, true});
    Evaluator ev(nl, f);
    ReferenceEvaluator ref(nl, f);
    for (uint64_t in : {0u, 1u, 1u, 0u, 1u, 0u, 0u}) {
        EXPECT_EQ(ev.evaluateBits(in), ref.evaluateBits(in));
        EXPECT_EQ(ev.gateEvals(), ref.gateEvals());
    }
}

TEST(EvaluatorDifferential, RingOscillatorSweepCap)
{
    Netlist nl;
    NetId loop = nl.addNet();
    NetId x = nl.addGate(GateKind::Not, {loop});
    NetId y = nl.addGate(GateKind::Not, {x});
    nl.addGateOnto(GateKind::Not, {y}, loop);
    nl.markOutput(loop);
    nl.markOutput(x);
    for (bool faulty : {false, true}) {
        FaultSet f;
        if (faulty)
            f.overrides[1] = GateFunction(1, 0b01, 0b00); // still NOT
        Evaluator ev(nl, f);
        ReferenceEvaluator ref(nl, f);
        for (int round = 0; round < 3; ++round) {
            ev.evaluate();
            ref.evaluate();
            EXPECT_TRUE(ev.lastOscillated());
            EXPECT_EQ(ev.lastOscillated(), ref.lastOscillated());
            EXPECT_EQ(ev.outputBits(2), ref.outputBits(2));
            EXPECT_EQ(ev.gateEvals(), ref.gateEvals());
        }
        EXPECT_EQ(ev.gateEvals(), 3u * 64u * 3u);
    }
}

TEST(EvaluatorDifferential, FullSweepOnConePrunedEvaluator)
{
    // evaluate() on a cone-pruned evaluator sweeps every gate, like
    // the reference's full sweep, and evaluateBits() afterwards
    // returns to the pruned program.
    Netlist nl = buildMultiplierSigned(8, FaStyle::Nand9);
    Rng rng(31);
    Injection inj = injectTransistorDefects(nl, 2, rng);
    Evaluator ev(nl, inj.faults, cleanMultiplierSigned(8));
    ReferenceEvaluator ref(nl, inj.faults, cleanMultiplierSigned(8));
    ASSERT_TRUE(ev.conePruned());
    for (int v = 0; v < 20; ++v) {
        uint64_t in = rng.nextUint(1u << 16);
        ev.setInputBits(in, 16);
        ref.setInputBits(in, 16);
        ev.evaluate();
        ref.evaluate();
        EXPECT_EQ(ev.outputBits(16), ref.outputBits(16));
        EXPECT_EQ(ev.evaluateBits(in ^ 0x5a5a), ref.evaluateBits(in ^ 0x5a5a));
        EXPECT_EQ(ev.gateEvals(), ref.gateEvals());
    }
}

/** A random gate with at least one input. */
uint32_t
gateWithInputs(const Netlist &nl, Rng &rng)
{
    for (;;) {
        uint32_t gi = static_cast<uint32_t>(rng.nextUint(nl.numGates()));
        if (nl.gate(gi).arity() > 0)
            return gi;
    }
}

/** Evaluator's stateBits() rebuilt from the reference: a state net
 *  below numNets() is a netlist net, net numNets() + 1 + k the store
 *  of the k-th delayed gate. */
uint64_t
referenceState(const ReferenceEvaluator &ref, const Netlist &nl,
               const FaultSet &faults, const std::vector<NetId> &state)
{
    std::vector<uint32_t> delayed(faults.delayed.begin(),
                                  faults.delayed.end());
    uint64_t bits = 0;
    for (size_t i = 0; i < state.size(); ++i) {
        NetId n = state[i];
        bool v = n < nl.numNets()
            ? ref.net(n)
            : ref.delayStored(delayed[n - nl.numNets() - 1]);
        bits |= static_cast<uint64_t>(v) << i;
    }
    return bits;
}

TEST(EvaluatorDifferential, ActivationGateMatchesPrunedSweep)
{
    // The gated pruned call (prefix, checks, then the rest only when
    // a faulty gate deviates) against the reference's plain sweep of
    // the gate-level cone, call by call. Streams mix fresh vectors
    // with repeats of ones that did and did not activate, so a call
    // that skips the rest is followed by calls that need the nets it
    // left stale.
    struct Unit
    {
        std::string name;
        Netlist nl;
        CleanFn clean;
    };
    std::vector<Unit> units;
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        std::string s = faStyleName(style);
        units.push_back({"mult/" + s, buildMultiplierSigned(16, style),
                         cleanMultiplierSigned(16)});
        units.push_back({"adder/" + s, buildRippleAdder(24, style, false),
                         cleanAdder(24, false)});
        units.push_back({"sigmoid/" + s,
                         buildSigmoidUnit(logisticPwlTable(), style),
                         cleanSigmoidUnit(logisticPwlTable())});
    }
    Rng rng(0xac71);
    uint64_t quiet_calls = 0, activated_calls = 0, reactivations = 0;
    for (const Unit &u : units) {
        const Netlist &nl = u.nl;
        size_t n_in = nl.inputs().size();
        size_t n_out = nl.outputs().size();
        uint64_t in_mask = (1ull << n_in) - 1;
        for (int trial = 0; trial < 16; ++trial) {
            SCOPED_TRACE(u.name + " trial " + std::to_string(trial));
            FaultSet faults =
                injectTransistorDefects(
                    nl, 1 + static_cast<int>(rng.nextUint(5)), rng)
                    .faults;
            // Forced on top, in turn: a MEM entry, a delay, an input
            // stuck-at, or all three.
            int forced = trial % 4;
            if (forced == 0 || forced == 3) {
                uint32_t gi = gateWithInputs(nl, rng);
                int arity = nl.gate(gi).arity();
                uint32_t rows = 1u << arity;
                faults.overrides[gi] = GateFunction(
                    arity, gateTable(nl.gate(gi).kind) & ((1u << rows) - 1),
                    1u << rng.nextUint(rows));
            }
            if (forced == 1 || forced == 3)
                faults.delayed.insert(gateWithInputs(nl, rng));
            if (forced == 2 || forced == 3) {
                uint32_t gi = gateWithInputs(nl, rng);
                faults.stuckAt.push_back(
                    {gi,
                     static_cast<int8_t>(rng.nextUint(
                         static_cast<uint64_t>(nl.gate(gi).arity()))),
                     rng.nextBool()});
            }

            Evaluator ev(nl, faults, u.clean);
            ReferenceEvaluator ref(nl, faults, u.clean);
            ASSERT_TRUE(ev.conePruned());
            ASSERT_TRUE(ref.conePruned());
            std::vector<NetId> state = ev.stateNets();
            ASSERT_LE(state.size(), 64u);
            std::vector<uint64_t> seen[2]; // quiet, activated
            bool last_activated = false;
            uint64_t in = 0;
            for (int call = 0; call < 80; ++call) {
                int pick = static_cast<int>(rng.nextUint(3));
                if (pick < 2 && !seen[pick].empty())
                    in = seen[pick][rng.nextUint(seen[pick].size())];
                else
                    in = rng.nextUint(UINT64_MAX) & in_mask;
                uint64_t before = ev.activatedCalls();
                uint64_t got = ev.evaluateBits(in);
                ASSERT_EQ(got, ref.evaluateBits(in)) << "call " << call;
                bool activated = ev.activatedCalls() != before;
                ASSERT_LE(ev.activatedCalls() - before, 1u);
                ASSERT_EQ(ev.stateBits(),
                          referenceState(ref, nl, faults, state))
                    << "call " << call;
                for (size_t o = 0; o < n_out; ++o)
                    ASSERT_EQ(ev.output(o), (got >> o & 1) != 0)
                        << "call " << call << " output " << o;
                ASSERT_EQ(ev.gateEvals(), ref.gateEvals())
                    << "call " << call;
                seen[activated].push_back(in);
                (activated ? activated_calls : quiet_calls) += 1;
                reactivations += activated && !last_activated && call > 0;
                last_activated = activated;
            }
            // A full sweep reads every net; it must find the ones the
            // gate left stale in a state it can rewrite.
            ev.setInputBits(in ^ 1, n_in);
            ref.setInputBits(in ^ 1, n_in);
            ev.evaluate();
            ref.evaluate();
            ASSERT_EQ(ev.outputBits(n_out), ref.outputBits(n_out));
            ASSERT_EQ(ev.stateBits(), referenceState(ref, nl, faults, state));
            ASSERT_EQ(ev.gateEvals(), ref.gateEvals());
        }
    }
    // The streams did interleave: both kinds of call, and many
    // activated calls right after a quiet one.
    EXPECT_GT(quiet_calls, 1000u);
    EXPECT_GT(activated_calls, 1000u);
    EXPECT_GT(reactivations, 300u);
}

TEST(EvaluatorDifferential, ActivatedCallsCountDeviatingCallsOnly)
{
    // An output stuck-at on a gate reading two primary inputs
    // deviates exactly when the gate's clean output differs from the
    // stuck value, which a clean evaluator tells for any vector.
    Netlist nl = buildMultiplierSigned(8, FaStyle::Nand9);
    auto is_input = [&](NetId n) {
        return std::find(nl.inputs().begin(), nl.inputs().end(), n) !=
            nl.inputs().end();
    };
    uint32_t gi = 0;
    while (nl.gate(gi).arity() != 2 || !is_input(nl.gate(gi).in[0]) ||
           !is_input(nl.gate(gi).in[1]))
        ++gi;
    FaultSet faults;
    faults.stuckAt.push_back({gi, -1, true});
    Evaluator clean_ev(nl);
    Evaluator ev(nl, faults, cleanMultiplierSigned(8));
    ASSERT_TRUE(ev.conePruned());
    auto deviates = [&](uint64_t in) {
        clean_ev.evaluateBits(in);
        return clean_ev.netValues()[nl.gate(gi).out] == 0;
    };
    uint64_t quiet = 0, active = 0;
    while (deviates(quiet))
        ++quiet;
    while (!deviates(active))
        ++active;
    EXPECT_EQ(ev.evaluateBits(quiet), cleanMultiplierSigned(8)(quiet));
    EXPECT_EQ(ev.activatedCalls(), 0u);
    ev.evaluateBits(active);
    EXPECT_EQ(ev.activatedCalls(), 1u);
    ev.evaluateBits(quiet);
    ev.evaluateBits(quiet);
    EXPECT_EQ(ev.activatedCalls(), 1u);
    ev.evaluateBits(active);
    EXPECT_EQ(ev.activatedCalls(), 2u);
    // Both kinds charge one pruned sweep.
    EXPECT_EQ(ev.gateEvals(), 5 * ev.faultCone()->activeCount);
}

} // namespace
} // namespace dtann
