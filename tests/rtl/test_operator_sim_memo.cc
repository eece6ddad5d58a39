/**
 * @file
 * Differential suite for OperatorSim's repeat record and relaxation
 * memo: apply() must match a bare Evaluator (the same fault set and
 * clean model, no record) call by call — outputs, granular output
 * reads, state bits and gate-evaluation totals — for pure, MEM,
 * delay and stacked fault sets on the multiplier, adder and sigmoid
 * units, under constant, alternating-run, short-cycle and random
 * input streams, with a reset() in the middle; the reads go through
 * the const evaluator() so the record survives them. The calls the
 * record answers are counted exactly: a call is answered when it
 * repeats the previous input and the bare evaluator's previous call
 * left stateBits() as it found it. Latch registers (the relaxation
 * memo) are held to the full net vector, the sweep count and the
 * oscillation flag as well, under stuck-at, MEM, delay and
 * oscillating fault sets and repeated or changing store streams,
 * call by call and as two-word store pairs with a single call, a
 * reset() or another word between repeated pairs, where a pair is
 * answered when it repeats the previous pair and the bare
 * evaluator's previous pair left netValues() as it found them; and
 * on a feedback counter whose repeated pairs never leave the net
 * vector they started from.
 * A stream that alternates repeat answers with misses the activation
 * gate answers and misses that sweep the rest is held to the
 * full-sweep sim and to the reference interpreter's gate charge.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "ann/sigmoid.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"
#include "rtl/sigmoid_unit.hh"
#include "../circuit/reference_evaluator.hh"

namespace dtann {
namespace {

/** One operator shape with its clean model. */
struct Unit
{
    const char *name;
    std::shared_ptr<const Netlist> nl;
    CleanFn clean;
    int inputBits;
};

std::vector<Unit>
units()
{
    return {
        {"multiplier",
         std::make_shared<const Netlist>(
             buildMultiplierSigned(16, FaStyle::Nand9)),
         cleanMultiplierSigned(16), 32},
        {"adder",
         std::make_shared<const Netlist>(
             buildRippleAdder(24, FaStyle::Nand9, false)),
         cleanAdder(24, false), 48},
        {"sigmoid",
         std::make_shared<const Netlist>(
             buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9)),
         cleanSigmoidUnit(logisticPwlTable()), 16},
    };
}

bool
hasMem(const FaultSet &f)
{
    for (const auto &[gate, fn] : f.overrides)
        if (fn.hasMem())
            return true;
    return false;
}

/** Draw transistor injections until @p want accepts one. */
FaultSet
drawFaults(const Netlist &nl, Rng &rng,
           const std::function<bool(const FaultSet &)> &want)
{
    for (int tries = 0; tries < 20000; ++tries) {
        int defects = 1 + static_cast<int>(rng.nextUint(3));
        Injection inj = injectTransistorDefects(nl, defects, rng);
        if (want(inj.faults))
            return inj.faults;
    }
    ADD_FAILURE() << "no matching injection found";
    return {};
}

/** The four fault-set families the memo must be exact for. */
std::vector<std::pair<std::string, FaultSet>>
faultFamilies(const Netlist &nl, Rng &rng)
{
    FaultSet pure = drawFaults(nl, rng, [](const FaultSet &f) {
        return f.isStateless();
    });
    FaultSet mem = drawFaults(nl, rng, [](const FaultSet &f) {
        return hasMem(f) && f.delayed.empty();
    });
    FaultSet delay = drawFaults(nl, rng, [](const FaultSet &f) {
        return !f.delayed.empty();
    });
    // Stacked: MEM + delay + stuck-ats on a faulty gate's input and
    // on some other gate's output.
    FaultSet stacked = mem;
    stacked.merge(delay);
    uint32_t mem_gate = stacked.overrides.begin()->first;
    stacked.stuckAt.push_back({mem_gate, 0, true});
    stacked.stuckAt.push_back(
        {static_cast<uint32_t>(rng.nextUint(nl.numGates())), -1,
         rng.nextBool()});
    return {{"pure", pure},
            {"mem", mem},
            {"delay", delay},
            {"stacked", stacked}};
}

/**
 * A bare Evaluator that also applies the repeat rule: call() tells
 * whether OperatorSim answers the call from its record, that is,
 * whether it repeats the previous call's input and that call left
 * stateBits() as it found them. forget() stands for anything that
 * drops the record (reset(), the non-const evaluator()).
 */
struct RepeatOracle
{
    Evaluator ev;
    bool valid = false;
    uint64_t input = 0;

    RepeatOracle(const Netlist &nl, const FaultSet &faults,
                 const CleanFn &clean)
        : ev(nl, faults, clean)
    {
        ev.stateNets(); // stateBits() reads the folded state nets
    }

    /** Evaluate @p in into @p out; true when the record answers it. */
    bool
    call(uint64_t in, uint64_t &out)
    {
        bool repeat = valid && in == input;
        uint64_t state = ev.stateBits();
        out = ev.evaluateBits(in);
        valid = ev.stateBits() == state;
        input = in;
        return repeat;
    }

    void forget() { valid = false; }
};

/** The input streams: constant, alternating runs, short cycles,
 *  random. */
std::vector<std::pair<std::string, std::vector<uint64_t>>>
streams(int input_bits, Rng &rng)
{
    auto word = [&] { return rng.nextUint(1ull << input_bits); };
    std::vector<std::pair<std::string, std::vector<uint64_t>>> out;
    out.push_back({"constant", std::vector<uint64_t>(300, word())});
    // Two words in runs of 1-4: back-to-back repeats, each run
    // starting from the state the other word left.
    uint64_t pair[2] = {word(), word()};
    std::vector<uint64_t> alternating;
    for (size_t k = 0; alternating.size() < 300; ++k)
        alternating.insert(alternating.end(), 1 + rng.nextUint(4),
                           pair[k % 2]);
    out.push_back({"alternating", alternating});
    for (size_t period : {2, 3, 5, 8}) {
        std::vector<uint64_t> cycle(period);
        for (auto &v : cycle)
            v = word();
        std::vector<uint64_t> s;
        for (int i = 0; i < 300; ++i)
            s.push_back(cycle[static_cast<size_t>(i) % period]);
        out.push_back({"cycle" + std::to_string(period), s});
    }
    std::vector<uint64_t> random(300);
    for (auto &v : random)
        v = word();
    out.push_back({"random", random});
    return out;
}

TEST(OperatorSimMemo, MatchesBareEvaluatorCallByCall)
{
    Rng rng(2024);
    for (const Unit &u : units()) {
        for (const auto &[family, faults] : faultFamilies(*u.nl, rng)) {
            for (const auto &[stream, in] : streams(u.inputBits, rng)) {
                SCOPED_TRACE(std::string(u.name) + "/" + family + "/" +
                             stream);
                OperatorSim sim(u.nl, Injection{faults, {}}, u.clean);
                RepeatOracle ref(*u.nl, faults, u.clean);
                ASSERT_TRUE(sim.conePruned());
                ASSERT_TRUE(ref.ev.conePruned());
                size_t n_out = u.nl->outputs().size();
                uint64_t repeats = 0;
                for (size_t i = 0; i < in.size(); ++i) {
                    if (i == in.size() / 2) {
                        sim.reset();
                        ref.ev.reset();
                        ref.forget();
                    }
                    uint64_t want = 0;
                    bool repeat = ref.call(in[i], want);
                    repeats += repeat;
                    uint64_t hits = sim.counters().memoHits;
                    ASSERT_EQ(sim.apply(in[i]), want) << "call " << i;
                    ASSERT_EQ(sim.counters().memoHits - hits,
                              repeat ? 1u : 0u)
                        << "call " << i;
                    const Evaluator &ev = std::as_const(sim).evaluator();
                    ASSERT_EQ(ev.outputBits(n_out), ref.ev.outputBits(n_out))
                        << "call " << i;
                    ASSERT_EQ(ev.stateBits(), ref.ev.stateBits())
                        << "call " << i;
                    ASSERT_EQ(ev.gateEvals(), ref.ev.gateEvals())
                        << "call " << i;
                }
                SimCounters c = sim.counters();
                EXPECT_EQ(c.scalarVectors, in.size());
                EXPECT_EQ(c.gateEvals, ref.ev.gateEvals());
                EXPECT_EQ(c.memoHits, repeats);
                // A cycle never repeats the call before it; a
                // constant stream repeats from its second call on
                // whenever some call leaves its state.
                if (stream.rfind("cycle", 0) == 0) {
                    EXPECT_EQ(repeats, 0u);
                }
                if (stream == "constant") {
                    EXPECT_GT(repeats, 0u);
                }
            }
        }
    }
}

TEST(OperatorSimMemo, StatefulFaultSetsHaveStateNets)
{
    Rng rng(7);
    for (const Unit &u : units()) {
        for (const auto &[family, faults] : faultFamilies(*u.nl, rng)) {
            SCOPED_TRACE(std::string(u.name) + "/" + family);
            Evaluator ev(*u.nl, faults, u.clean);
            size_t want = faults.delayed.size();
            if (family == "pure")
                EXPECT_EQ(ev.stateNets().size(), 0u);
            else
                EXPECT_GE(ev.stateNets().size(), want > 0 ? want : 1);
        }
    }
}

TEST(OperatorSimMemo, FullSweepAfterRepeatMatches)
{
    // A call answered from the record writes no net; the nets the
    // call before it left must serve a full sweep right after it.
    Unit u = units()[0];
    Rng rng(31);
    FaultSet faults = faultFamilies(*u.nl, rng)[3].second;
    OperatorSim sim(u.nl, Injection{faults, {}}, u.clean);
    RepeatOracle ref(*u.nl, faults, u.clean);
    size_t n_out = u.nl->outputs().size();
    size_t n_in = u.nl->inputs().size();
    uint64_t a = rng.nextUint(1ull << 32), b = rng.nextUint(1ull << 32);
    uint64_t repeats = 0, swept = 0;
    for (int i = 0; i < 80; ++i) {
        uint64_t v = i / 4 % 2 ? a : b;
        uint64_t want = 0;
        bool repeat = ref.call(v, want);
        repeats += repeat;
        ASSERT_EQ(sim.apply(v), want) << "call " << i;
        ASSERT_EQ(sim.counters().memoHits, repeats) << "call " << i;
        if (repeat) {
            // The non-const evaluator() drops the record.
            sim.evaluator().setInputBits(v, n_in);
            ref.ev.setInputBits(v, n_in);
            sim.evaluator().evaluate();
            ref.ev.evaluate();
            ref.forget();
            ++swept;
            ASSERT_EQ(sim.evaluator().outputBits(n_out),
                      ref.ev.outputBits(n_out))
                << "call " << i;
            ASSERT_EQ(sim.evaluator().stateBits(), ref.ev.stateBits())
                << "call " << i;
        }
    }
    EXPECT_GT(swept, 5u);
    EXPECT_EQ(sim.counters().gateEvals, ref.ev.gateEvals());
}

TEST(OperatorSimMemo, HitsCountedOnRepeatsOnly)
{
    Unit u = units()[0];
    Rng rng(5);
    FaultSet mem = drawFaults(*u.nl, rng, [](const FaultSet &f) {
        return hasMem(f);
    });
    std::vector<uint64_t> cycle(6);
    for (auto &v : cycle)
        v = rng.nextUint(1ull << 32);

    // A cycle revisits its words but never repeats the call before.
    OperatorSim cyc(u.nl, Injection{mem, {}}, u.clean);
    for (int i = 0; i < 120; ++i)
        cyc.apply(cycle[static_cast<size_t>(i) % cycle.size()]);
    EXPECT_EQ(cyc.counters().memoHits, 0u);

    // The same words in runs of four: exactly the oracle's repeats.
    OperatorSim sim(u.nl, Injection{mem, {}}, u.clean);
    RepeatOracle ref(*u.nl, mem, u.clean);
    uint64_t repeats = 0;
    for (int i = 0; i < 120; ++i) {
        uint64_t v = cycle[static_cast<size_t>(i / 4) % cycle.size()];
        uint64_t want = 0;
        repeats += ref.call(v, want);
        ASSERT_EQ(sim.apply(v), want) << "call " << i;
    }
    EXPECT_GT(repeats, 0u);
    EXPECT_EQ(sim.counters().memoHits, repeats);

    // Merged counters carry the hits; toJson() leaves them out.
    SimCounters total = sim.counters();
    total.merge(sim.counters());
    EXPECT_EQ(total.memoHits, 2 * repeats);
    EXPECT_EQ(total.toJson().find("memo"), std::string::npos);

    // Without a clean model the full-sweep oracle keeps no record.
    OperatorSim slow(u.nl, Injection{mem, {}}, CleanFn{});
    EXPECT_FALSE(slow.conePruned());
    for (int i = 0; i < 120; ++i)
        slow.apply(cycle[static_cast<size_t>(i / 4) % cycle.size()]);
    EXPECT_EQ(slow.counters().memoHits, 0u);
}

TEST(OperatorSimMemo, HitsGatedAndActivatedMissesInterleave)
{
    // One stream whose calls alternate between repeats the record
    // answers, misses the activation gate answers from the clean
    // model, and misses that sweep the rest of the pruned program.
    // Outputs must match the full-sweep sim (CleanFn{}) and the
    // reference's gate-level cone, and the gate charge the
    // reference's, whatever mix of the three a call sequence takes.
    Unit u = units()[0];
    Rng rng(0x6a7e);
    uint64_t kinds[3] = {0, 0, 0}; // repeat, gated miss, activated miss
    uint64_t switches = 0;
    for (const auto &[family, faults] : faultFamilies(*u.nl, rng)) {
        SCOPED_TRACE(family);
        OperatorSim sim(u.nl, Injection{faults, {}}, u.clean);
        OperatorSim full(u.nl, Injection{faults, {}}, CleanFn{});
        ReferenceEvaluator ref(*u.nl, faults, u.clean);
        RepeatOracle oracle(*u.nl, faults, u.clean);
        ASSERT_TRUE(sim.conePruned());
        ASSERT_FALSE(full.conePruned());
        size_t n_out = u.nl->outputs().size();
        int last = -1;
        uint64_t in = 0;
        const size_t calls = 600;
        for (size_t i = 0; i < calls; ++i) {
            if (i % 3 != 2)
                in = rng.nextUint(1ull << u.inputBits);
            uint64_t want = 0;
            bool repeat = oracle.call(in, want);
            SimCounters before = sim.counters();
            uint64_t activated =
                std::as_const(sim).evaluator().activatedCalls();
            uint64_t got = sim.apply(in);
            ASSERT_EQ(got, want) << "call " << i;
            ASSERT_EQ(got, full.apply(in)) << "call " << i;
            ASSERT_EQ(got, ref.evaluateBits(in)) << "call " << i;
            const Evaluator &ev = std::as_const(sim).evaluator();
            ASSERT_EQ(ev.outputBits(n_out), got) << "call " << i;
            int kind = sim.counters().memoHits != before.memoHits ? 0
                : ev.activatedCalls() != activated                 ? 2
                                                                   : 1;
            ASSERT_EQ(kind == 0, repeat) << "call " << i;
            ++kinds[kind];
            switches += kind != last;
            last = kind;
        }
        SimCounters c = sim.counters();
        EXPECT_EQ(c.scalarVectors, calls);
        EXPECT_EQ(c.scalarVectors, full.counters().scalarVectors);
        EXPECT_EQ(c.gateEvals, ref.gateEvals());
        EXPECT_EQ(full.counters().memoHits, 0u);
    }
    EXPECT_GT(kinds[0], 500u);
    EXPECT_GT(kinds[1], 500u);
    EXPECT_GT(kinds[2], 500u);
    EXPECT_GT(switches, 1200u);
}

/**
 * Latch fault sets for the relaxation memo: stuck-ats, a MEM draw, a
 * delay draw, and an oscillating cross-coupled pair. Gate 5b + k of
 * the register is gate k of bit b's cell: NOT D, the set NAND, the
 * reset NAND, then Q's and Qb's NANDs.
 */
std::vector<std::pair<std::string, FaultSet>>
latchFamilies(const Netlist &nl, Rng &rng)
{
    FaultSet stuck;
    stuck.stuckAt.push_back({3, -1, true});  // bit 0's Q stuck at 1
    stuck.stuckAt.push_back({7, 1, false}); // bit 1's reset never enabled
    FaultSet mem = drawFaults(nl, rng, [](const FaultSet &f) {
        return hasMem(f) && f.delayed.empty();
    });
    FaultSet delay = drawFaults(nl, rng, [](const FaultSet &f) {
        return !f.delayed.empty();
    });
    // Bit 2's Q gate becomes an AND: with the latch closed, Q copies
    // Qb and Qb inverts Q, so every EN=0 call runs to the sweep cap.
    FaultSet osc = mem;
    osc.overrides[13] = GateFunction(2, 0b1000, 0);
    return {{"stuck", stuck},
            {"mem", mem},
            {"delay", delay},
            {"oscillating", osc}};
}

/** Store streams: each word is written as EN=1 then EN=0. */
std::vector<std::pair<std::string, std::vector<uint64_t>>>
storeStreams(Rng &rng)
{
    auto word = [&] { return rng.nextUint(1u << 16); };
    auto stores = [](const std::vector<uint64_t> &words) {
        std::vector<uint64_t> s;
        for (uint64_t w : words) {
            s.push_back(w | 1u << 16);
            s.push_back(w);
        }
        return s;
    };
    std::vector<std::pair<std::string, std::vector<uint64_t>>> out;
    out.push_back({"repeat", stores(std::vector<uint64_t>(80, word()))});
    std::vector<uint64_t> cycle = {word(), word(), word()}, cyc;
    for (size_t i = 0; i < 90; ++i)
        cyc.push_back(cycle[i % cycle.size()]);
    out.push_back({"cycle3", stores(cyc)});
    // A weight that mostly survives a step and sometimes moves by an
    // LSB or two, like a trained synapse.
    std::vector<uint64_t> drift;
    uint64_t w = word();
    for (int i = 0; i < 120; ++i) {
        if (rng.nextUint(3) == 0)
            w = (w + rng.nextUint(5) - 2) & 0xffff;
        drift.push_back(w);
    }
    out.push_back({"drift", stores(drift)});
    std::vector<uint64_t> random(150);
    for (auto &v : random)
        v = word();
    out.push_back({"random", stores(random)});
    return out;
}

TEST(OperatorSimMemo, LatchRelaxationsMatchBareEvaluatorCallByCall)
{
    auto nl = std::make_shared<const Netlist>(buildLatchRegister(16));
    Rng rng(11);
    bool oscillated = false;
    for (const auto &[family, faults] : latchFamilies(*nl, rng)) {
        for (const auto &[stream, in] : storeStreams(rng)) {
            SCOPED_TRACE(family + "/" + stream);
            OperatorSim sim(nl, Injection{faults, {}});
            Evaluator ref(*nl, faults);
            ASSERT_FALSE(sim.conePruned());
            for (size_t i = 0; i < in.size(); ++i) {
                if (i == in.size() / 2) {
                    sim.reset();
                    ref.reset();
                }
                uint64_t want = ref.evaluateBits(in[i]);
                ASSERT_EQ(sim.apply(in[i]), want) << "call " << i;
                const Evaluator &ev = sim.evaluator();
                ASSERT_EQ(ev.netValues(), ref.netValues()) << "call " << i;
                ASSERT_EQ(ev.gateEvals(), ref.gateEvals()) << "call " << i;
                ASSERT_EQ(ev.lastSweeps(), ref.lastSweeps()) << "call " << i;
                ASSERT_EQ(sim.lastOscillated(), ref.lastOscillated())
                    << "call " << i;
                oscillated |= ref.lastOscillated();
            }
            SimCounters c = sim.counters();
            EXPECT_EQ(c.scalarVectors, in.size());
            EXPECT_EQ(c.gateEvals, ref.gateEvals());
            EXPECT_LE(c.memoHits, c.scalarVectors);
            if (stream != "random") {
                EXPECT_GT(c.memoHits, 0u);
            }
        }
    }
    // The oscillating family must really reach the sweep cap.
    EXPECT_TRUE(oscillated);
}

/**
 * A bare Evaluator driven by two-word store pairs that also applies
 * the pair repeat rule: pair() tells whether OperatorSim answers the
 * pair from its record, that is, whether it repeats the previous
 * pair's words and that pair left netValues() as it found them.
 * Any other call, and reset(), drop the record: forget().
 */
struct PairOracle
{
    Evaluator ev;
    bool valid = false;
    uint64_t words[2] = {};

    PairOracle(const Netlist &nl, const FaultSet &faults) : ev(nl, faults) {}

    /** Store pair (@p first, @p second) into @p out; true when the
     *  record answers it. */
    bool
    pair(uint64_t first, uint64_t second, uint64_t &out)
    {
        bool repeat = valid && first == words[0] && second == words[1];
        std::vector<uint8_t> start = ev.netValues();
        ev.evaluateBits(first);
        out = ev.evaluateBits(second);
        valid = ev.netValues() == start;
        words[0] = first;
        words[1] = second;
        return repeat;
    }

    void forget() { valid = false; }
};

TEST(OperatorSimMemo, LatchStorePairsMatchBareEvaluatorPairByPair)
{
    // Repeated stores of one word reach the pair record; between
    // repeats a single call, a reset() or a store of another word
    // must drop it. Each pair is held to the bare evaluator's two
    // calls: output, net vector, gate evaluations, sweep count and
    // oscillation flag. A pair the oracle says repeats is answered
    // from the record (two hits); the others may hit the relaxation
    // memo.
    auto nl = std::make_shared<const Netlist>(buildLatchRegister(16));
    Rng rng(13);
    bool oscillated = false;
    const uint64_t en = 1ull << 16;
    for (const auto &[family, faults] : latchFamilies(*nl, rng)) {
        for (const char *between : {"none", "apply", "reset", "word"}) {
            SCOPED_TRACE(family + "/" + between);
            OperatorSim sim(nl, Injection{faults, {}});
            PairOracle ref(*nl, faults);
            uint64_t words[2] = {rng.nextUint(1u << 16),
                                 rng.nextUint(1u << 16)};
            uint64_t other = rng.nextUint(1u << 16);
            uint64_t calls = 0, repeats = 0;
            uint64_t want = 0;
            for (int i = 0; i < 120; ++i) {
                uint64_t w = words[i / 40 % 2];
                if (i % 9 == 8) {
                    std::string b = between;
                    if (b == "apply") {
                        // EN=0 with another D: no store, other inputs.
                        ASSERT_EQ(sim.apply(other),
                                  ref.ev.evaluateBits(other));
                        ref.forget();
                        calls += 1;
                    } else if (b == "reset") {
                        sim.reset();
                        ref.ev.reset();
                        ref.forget();
                    } else if (b == "word") {
                        repeats += ref.pair(other | en, other, want);
                        ASSERT_EQ(sim.applyPair(other | en, other), want);
                        calls += 2;
                    }
                }
                calls += 2;
                bool repeat = ref.pair(w | en, w, want);
                repeats += repeat;
                uint64_t hits = sim.counters().memoHits;
                ASSERT_EQ(sim.applyPair(w | en, w), want) << "pair " << i;
                if (repeat) {
                    ASSERT_EQ(sim.counters().memoHits - hits, 2u)
                        << "pair " << i;
                }
                const Evaluator &ev = std::as_const(sim).evaluator();
                ASSERT_EQ(ev.netValues(), ref.ev.netValues()) << "pair " << i;
                ASSERT_EQ(ev.gateEvals(), ref.ev.gateEvals()) << "pair " << i;
                ASSERT_EQ(ev.lastSweeps(), ref.ev.lastSweeps())
                    << "pair " << i;
                ASSERT_EQ(sim.lastOscillated(), ref.ev.lastOscillated())
                    << "pair " << i;
                oscillated |= ref.ev.lastOscillated();
            }
            SimCounters c = sim.counters();
            EXPECT_EQ(c.scalarVectors, calls);
            EXPECT_EQ(c.gateEvals, ref.ev.gateEvals());
            EXPECT_GE(c.memoHits, 2 * repeats);
            EXPECT_LE(c.memoHits, c.scalarVectors);
            EXPECT_GT(repeats, 0u);
        }
    }
    EXPECT_TRUE(oscillated);
}

TEST(OperatorSimMemo, RepeatedPairsOnACounterMatchBareEvaluator)
{
    // A ring of three inverters, the first and last delayed, is a
    // two-bit counter with period 4 per call whatever its inputs
    // (00, 10, 11, 01), so one pair repeated moves the net vector
    // on every time: its calls hit the relaxation memo once the
    // cycle has been seen, but no pair ends where it started, so
    // the record must never answer one.
    auto nl = std::make_shared<Netlist>();
    NetId d = nl->addNet(), en = nl->addNet(), loop = nl->addNet();
    nl->markInput(d);
    nl->markInput(en);
    NetId n0 = nl->addGate(GateKind::Not, {loop});
    NetId n1 = nl->addGate(GateKind::Not, {n0});
    nl->addGateOnto(GateKind::Not, {n1}, loop);
    for (NetId n : {n0, n1, loop})
        nl->markOutput(n);
    ASSERT_TRUE(nl->hasFeedback());
    FaultSet faults;
    faults.delayed = {0, 2};
    OperatorSim sim(nl, Injection{faults, {}});
    PairOracle ref(*nl, faults);
    uint64_t want = 0;
    for (int i = 0; i < 60; ++i) {
        uint64_t w = i < 30 ? 1 : 0;
        ASSERT_FALSE(ref.pair(w | 2, w, want)) << "pair " << i;
        ASSERT_EQ(sim.applyPair(w | 2, w), want) << "pair " << i;
        const Evaluator &ev = std::as_const(sim).evaluator();
        ASSERT_EQ(ev.netValues(), ref.ev.netValues()) << "pair " << i;
        ASSERT_EQ(ev.gateEvals(), ref.ev.gateEvals()) << "pair " << i;
        ASSERT_EQ(ev.lastSweeps(), ref.ev.lastSweeps()) << "pair " << i;
    }
    EXPECT_GT(sim.counters().memoHits, 60u);
}

} // namespace
} // namespace dtann
