/**
 * @file
 * Simulator micro-benchmarks: gate-level evaluation throughput,
 * faulty-operator simulation cost, and reconstruction cost. These
 * bound the runtime of the defect campaigns.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "ann/sigmoid.hh"
#include "ann/trainer.hh"
#include "circuit/batch_evaluator.hh"
#include "circuit/evaluator.hh"
#include "circuit/lane_plane.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "core/accelerator.hh"
#include "core/deep_mux.hh"
#include "core/injector.hh"
#include "core/row_map.hh"
#include "core/timemux.hh"
#include "data/dataset.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"
#include "rtl/sigmoid_unit.hh"
#include "transistor/reconstruct.hh"

using namespace dtann;

namespace {

void
BM_EvalAdder16(benchmark::State &state)
{
    Netlist nl = buildRippleAdder(16, FaStyle::Nand9, true);
    Evaluator ev(nl);
    Rng rng(1);
    uint64_t a = rng.nextUint(1 << 16), b = rng.nextUint(1 << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(a | (b << 16)));
        a = (a + 12345) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
}
BENCHMARK(BM_EvalAdder16);

void
BM_EvalMultiplier16(benchmark::State &state)
{
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Evaluator ev(nl);
    uint64_t a = 0x1234, b = 0x4321;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(a | (b << 16)));
        a = (a * 7 + 3) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
}
BENCHMARK(BM_EvalMultiplier16);

void
BM_EvalMultiplier16Faulty(benchmark::State &state)
{
    // Baseline of the faulty hot path: full scalar sweep over every
    // gate. The Pruned/Batch variants below inject the same defects
    // (same seed) so their vectors/s counters are comparable.
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(2);
    Injection inj =
        injectTransistorDefects(nl, static_cast<int>(state.range(0)), rng);
    Evaluator ev(nl, std::move(inj.faults));
    uint64_t a = 0x1234, b = 0x4321;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(a | (b << 16)));
        a = (a * 7 + 3) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvalMultiplier16Faulty)->Arg(1)->Arg(8);

void
BM_EvalMultiplier16FaultyPruned(benchmark::State &state)
{
    // Cone-pruned scalar path: only the fault cone plus its support
    // is gate-simulated; out-of-cone output bits come from the
    // native clean model.
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(2);
    Injection inj =
        injectTransistorDefects(nl, static_cast<int>(state.range(0)), rng);
    Evaluator ev(nl, std::move(inj.faults), cleanMultiplierSigned(16));
    uint64_t a = 0x1234, b = 0x4321;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(a | (b << 16)));
        a = (a * 7 + 3) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["active_gates"] = static_cast<double>(
        ev.conePruned() ? ev.faultCone()->activeCount : nl.numGates());
    // Share of calls in which a faulty gate deviated, so the rest of
    // the pruned program was swept.
    state.counters["activation_rate"] =
        static_cast<double>(ev.activatedCalls()) /
        static_cast<double>(std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_EvalMultiplier16FaultyPruned)->Arg(1)->Arg(8);

/** Injections of 1-3 defects the mixed rows average over. */
constexpr int kMixInjections = 64;

void
BM_EvalMultiplier16FaultyPrunedMix(benchmark::State &state)
{
    // The cone-pruned scalar path averaged over many defects, as a
    // campaign sees it: 64 random injections of 1-3 transistor
    // defects (MEM and delay faults included), one evaluator each,
    // taking the calls in turn. Programs are folded before timing.
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    CleanFn clean = cleanMultiplierSigned(16);
    Rng rng(31);
    std::vector<Evaluator> evs;
    evs.reserve(kMixInjections);
    for (int i = 0; i < kMixInjections; ++i) {
        Injection inj = injectTransistorDefects(nl, 1 + i % 3, rng);
        evs.emplace_back(nl, std::move(inj.faults), clean);
        evs.back().evaluateBits(0);
    }
    uint64_t a = 0x1234, b = 0x4321;
    size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(evs[k].evaluateBits(a | (b << 16)));
        k = k + 1 == evs.size() ? 0 : k + 1;
        a = (a * 7 + 3) & 0xffff;
        b = (b * 5 + 1) & 0xffff;
    }
    // Share of calls (the warm-up ones included) in which a faulty
    // gate deviated.
    uint64_t activated = 0;
    for (const Evaluator &ev : evs)
        activated += ev.activatedCalls();
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["activation_rate"] = static_cast<double>(activated) /
        static_cast<double>(static_cast<uint64_t>(state.iterations()) +
                            evs.size());
}
BENCHMARK(BM_EvalMultiplier16FaultyPrunedMix);

/**
 * Narrow-cone pair: injection seed 275 lands a state-free defect
 * whose cone plus support is 24 of 2604 gates (~1%) — the class of
 * defect where pruning pays off most. The Faulty/FaultyPruned pair
 * above uses uniformly random sites (mean active fraction ~0.94 on
 * this operator), so the two pairs bracket the pruning win.
 */
void
BM_EvalMultiplier16NarrowFault(benchmark::State &state)
{
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(275);
    Injection inj = injectTransistorDefects(nl, 1, rng);
    Evaluator ev(nl, std::move(inj.faults),
                 state.range(0) ? cleanMultiplierSigned(16) : CleanFn{});
    uint64_t a = 0x1234, b = 0x4321;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(a | (b << 16)));
        a = (a * 7 + 3) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["active_gates"] = static_cast<double>(
        ev.conePruned() ? ev.faultCone()->activeCount : nl.numGates());
}
BENCHMARK(BM_EvalMultiplier16NarrowFault)
    ->Arg(0)  // full scalar sweep
    ->Arg(1); // cone-pruned

void
BM_BatchEvalMultiplier16Faulty(benchmark::State &state)
{
    // 64-lane faulty batch with cone-pruned splicing: the campaign
    // hot path for state-free fault sets (test-set sweeps).
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(2);
    Injection inj =
        injectTransistorDefects(nl, static_cast<int>(state.range(0)), rng);
    // Transistor reconstruction sometimes yields MEM behaviour,
    // which the batch path hands back to the scalar evaluator;
    // redraw until the set is state-free so this measures the
    // batch path itself.
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(
            nl, static_cast<int>(state.range(0)), rng);
    auto ev = BatchEvaluator::tryCreate(nl, std::move(inj.faults),
                                        cleanMultiplierSigned(16));
    std::vector<uint64_t> in(64), out(64);
    Rng vrng(6);
    for (auto &v : in)
        v = vrng.nextUint(1ull << 32);
    for (auto _ : state) {
        ev->evaluateLanes(in.data(), out.data(), 64);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * 64 * nl.numGates()));
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * 64),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchEvalMultiplier16Faulty)->Arg(1)->Arg(8);

void
BM_BatchEvalMultiplier16FaultyLanes(benchmark::State &state)
{
    // The faulty sweep at each supported plane width (Arg = lanes):
    // 64 is the single-word differential oracle, 256/512 the wide
    // planes (DESIGN.md §9). The label records which kernel ISA this
    // machine dispatched to, so envelopes from different hosts stay
    // comparable.
    size_t lanes = static_cast<size_t>(state.range(0));
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(2);
    Injection inj = injectTransistorDefects(nl, 8, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(nl, 8, rng);
    auto ev =
        BatchEvaluator::tryCreate(nl, std::move(inj.faults),
                                  cleanMultiplierSigned(16), lanes);
    std::vector<uint64_t> in(lanes), out(lanes);
    Rng vrng(6);
    for (auto &v : in)
        v = vrng.nextUint(1ull << 32);
    for (auto _ : state) {
        ev->evaluateLanes(in.data(), out.data(), lanes);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * lanes * nl.numGates()));
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * lanes),
        benchmark::Counter::kIsRate);
    state.SetLabel(laneSweepIsaFor(lanes / 64));
}
BENCHMARK(BM_BatchEvalMultiplier16FaultyLanes)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512);

void
BM_BatchEvalMultiplier16FaultyMix(benchmark::State &state)
{
    // The cone-pruned lane sweep averaged over many defects (Arg =
    // lanes): 64 state-free random injections of 1-3 transistor
    // defects, one evaluator each, taking full-plane calls in turn.
    size_t lanes = static_cast<size_t>(state.range(0));
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    CleanFn clean = cleanMultiplierSigned(16);
    Rng rng(32);
    std::vector<BatchEvaluator> evs;
    evs.reserve(kMixInjections);
    for (int i = 0; i < kMixInjections; ++i) {
        Injection inj = injectTransistorDefects(nl, 1 + i % 3, rng);
        while (!inj.faults.isStateless())
            inj = injectTransistorDefects(nl, 1 + i % 3, rng);
        evs.emplace_back(nl, inj.faults, clean, lanes);
    }
    std::vector<uint64_t> in(lanes), out(lanes);
    Rng vrng(6);
    for (auto &v : in)
        v = vrng.nextUint(1ull << 32);
    size_t k = 0;
    for (auto _ : state) {
        evs[k].evaluateLanes(in.data(), out.data(), lanes);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        k = k + 1 == evs.size() ? 0 : k + 1;
    }
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * lanes),
        benchmark::Counter::kIsRate);
    // Mean gates one sweep stands for.
    uint64_t gates = 0, sweeps = 0;
    for (const BatchEvaluator &ev : evs) {
        gates += ev.gateSweeps();
        sweeps += ev.sweeps();
    }
    state.counters["active_gates"] =
        static_cast<double>(gates) /
        static_cast<double>(std::max<uint64_t>(sweeps, 1));
    state.SetLabel(laneSweepIsaFor(lanes / 64));
}
BENCHMARK(BM_BatchEvalMultiplier16FaultyMix)->Arg(512);

/** A 16-bit multiplier sim whose one-defect fault set carries a MEM
 *  entry (drawn from @p rng until one does). */
std::unique_ptr<OperatorSim>
memMultiplier(Rng &rng)
{
    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    Injection inj = injectTransistorDefects(*nl, 1, rng);
    auto has_mem = [](const FaultSet &f) {
        for (const auto &[gate, fn] : f.overrides)
            if (fn.hasMem())
                return true;
        return false;
    };
    while (!has_mem(inj.faults))
        inj = injectTransistorDefects(*nl, 1, rng);
    return std::make_unique<OperatorSim>(nl, std::move(inj),
                                         cleanMultiplierSigned(16));
}

void
BM_OpSimMultiplier16Mem(benchmark::State &state)
{
    // The retraining hot path: scalar OperatorSim::apply on a
    // multiplier whose defect floats its output for some inputs
    // (MEM), so the unit keeps state and never batches. Sites are
    // redrawn until the fault set carries a MEM entry.
    Rng rng(12);
    std::unique_ptr<OperatorSim> owned = memMultiplier(rng);
    OperatorSim &sim = *owned;
    uint64_t a = 0x1234, b = 0x4321;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.apply(a | (b << 16)));
        a = (a * 7 + 3) & 0xffff;
    }
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    // Activated share of the calls the repeat record did not answer
    // (the pruned sweeps); the stream never repeats a word back to
    // back, so that is every call.
    SimCounters c = sim.counters();
    state.counters["activation_rate"] =
        static_cast<double>(sim.evaluator().activatedCalls()) /
        static_cast<double>(std::max<uint64_t>(
            c.scalarVectors - c.memoHits, 1));
}
BENCHMARK(BM_OpSimMultiplier16Mem);

void
BM_OpSimMultiplier16Constant(benchmark::State &state)
{
    // The same MEM multiplier fed one word on every call, as a
    // padding synapse's multiplier sees (zero weight, zero input)
    // row after row: each call repeats the last one, which left the
    // state it started from, so the repeat record answers it.
    // BM_OpSimMultiplier16Mem (no repeats) is the control; hit_rate
    // is the share of calls the record answered.
    Rng rng(12);
    std::unique_ptr<OperatorSim> sim = memMultiplier(rng);
    uint64_t word = rng.nextUint(1u << 16) | (rng.nextUint(1u << 16) << 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim->apply(word));
    SimCounters c = sim->counters();
    state.counters["hit_rate"] = static_cast<double>(c.memoHits) /
        static_cast<double>(c.scalarVectors);
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OpSimMultiplier16Constant);

void
BM_OpSimConstruct(benchmark::State &state)
{
    // What every injection pays before its first result: draw one
    // transistor defect on the 16-bit multiplier, build the
    // OperatorSim (fault cone) and make the first apply() (program
    // fold). The batch evaluator waits for the first batched call
    // (BM_OpSimLanes).
    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    CleanFn clean = cleanMultiplierSigned(16);
    Rng rng(21);
    for (auto _ : state) {
        Injection inj = injectTransistorDefects(*nl, 1, rng);
        OperatorSim sim(nl, std::move(inj), clean);
        benchmark::DoNotOptimize(sim.apply(0x12344321));
    }
}
BENCHMARK(BM_OpSimConstruct);

void
BM_OpSimLanes(benchmark::State &state)
{
    // One Fig 10 test sweep through a faulty unit: applyLanes() of
    // 150 vectors (fig10-inference's test rows) on a state-free
    // multiplier with one transistor defect, at the negotiated lane
    // width. Packing the vectors into planes and the outputs back
    // is part of each call.
    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    Rng rng(2);
    Injection inj = injectTransistorDefects(*nl, 1, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(*nl, 1, rng);
    OperatorSim sim(nl, std::move(inj), cleanMultiplierSigned(16));
    std::vector<uint64_t> in(150), out(150);
    for (auto &v : in)
        v = rng.nextUint(1ull << 32);
    for (auto _ : state) {
        sim.applyLanes(in.data(), out.data(), in.size());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["vectors/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * in.size()),
        benchmark::Counter::kIsRate);
    state.SetLabel(batchLaneIsa());
}
BENCHMARK(BM_OpSimLanes);

void
BM_EvalSigmoidUnit(benchmark::State &state)
{
    Netlist nl = buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9);
    Evaluator ev(nl);
    uint64_t x = 0x0400;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateBits(x));
        x = (x + 911) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * nl.numGates()));
}
BENCHMARK(BM_EvalSigmoidUnit);

void
BM_EvalLatchRegister(benchmark::State &state)
{
    Netlist nl = buildLatchRegister(16);
    Evaluator ev(nl);
    uint64_t d = 0xa5a5;
    for (auto _ : state) {
        ev.setInputBits(d | (1ull << 16), 17);
        ev.evaluate();
        ev.setInput(16, false);
        ev.evaluate();
        benchmark::DoNotOptimize(ev.outputBits(16));
        d = (d << 1) | (d >> 15);
        d &= 0xffff;
    }
}
BENCHMARK(BM_EvalLatchRegister);

void
BM_ReconstructGate(benchmark::State &state)
{
    Rng rng(3);
    for (auto _ : state) {
        Defect d = randomDefect(GateKind::MirrorSumN, rng);
        benchmark::DoNotOptimize(
            reconstruct(GateKind::MirrorSumN, {{d}}));
    }
}
BENCHMARK(BM_ReconstructGate);

void
BM_InjectTwentyDefects(benchmark::State &state)
{
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(injectTransistorDefects(nl, 20, rng));
    }
}
BENCHMARK(BM_InjectTwentyDefects);

void
BM_BatchEvalMultiplier16(benchmark::State &state)
{
    // 64 vectors per call: the bit-parallel path used by
    // exhaustive verification.
    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    BatchEvaluator ev(nl);
    std::vector<uint64_t> vectors(64);
    Rng rng(5);
    for (auto &v : vectors)
        v = rng.nextUint(1ull << 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ev.evaluateVectors(vectors));
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * 64 * nl.numGates()));
}
BENCHMARK(BM_BatchEvalMultiplier16);

// ---------------------------------------------------------------
// Model-level forward throughput: the campaign hot loop is a
// test-set sweep through a (possibly defective) ForwardModel, so
// these bound campaign runtime directly. Each family compares a
// per-row loop of forward(), each call a one-row forwardBatch (Arg
// 0), against one forwardBatch (Arg 1); all use one lane-batchable
// injected defect so the batched variants measure the wide-lane
// path, and a 256-row sweep.

constexpr size_t kSweepRows = 256;

std::vector<std::vector<double>>
sweepRows(int width, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> rows(kSweepRows);
    for (auto &row : rows) {
        row.resize(static_cast<size_t>(width));
        for (double &v : row)
            v = rng.nextDouble();
    }
    return rows;
}

/**
 * Build a 12-4-3 array mapped to @p topo with one injected defect
 * whose faulty sim is lane-batchable (redrawing sites until
 * batchPure() holds, the model-level analogue of the state-free
 * redraw above).
 */
std::unique_ptr<Accelerator>
pureFaultyArray(MlpTopology topo, uint64_t seed)
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    Rng rng(seed);
    std::unique_ptr<Accelerator> accel;
    do {
        accel = std::make_unique<Accelerator>(cfg, topo);
        DefectInjector inj(*accel, SitePool::inputAndHidden());
        inj.inject(1, rng);
    } while (!accel->batchPure());
    return accel;
}

void
sweepModel(benchmark::State &state, ForwardModel &model,
           const std::vector<std::vector<double>> &rows)
{
    if (state.range(0)) {
        for (auto _ : state) {
            auto acts = model.forwardBatch(rows);
            benchmark::DoNotOptimize(acts.data());
        }
    } else {
        for (auto _ : state) {
            for (const auto &row : rows) {
                Activations act = model.forward(row);
                benchmark::DoNotOptimize(act.layers.data());
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * rows.size()));
    state.counters["rows/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * rows.size()),
        benchmark::Counter::kIsRate);
}

void
BM_SpatialForwardRowClean(benchmark::State &state)
{
    // One clean row through the paper's 90-10-10 array as a one-row
    // forwardBatch: about 2,040 unit operations (multipliers, adder
    // stages, activations), each resolving its unit slot. Retraining
    // forwards every sample this way.
    MlpTopology topo{90, 10, 10};
    SpatialBackend accel(AcceleratorConfig(), topo);
    DeepWeights w(topo);
    Rng wr(7);
    w.initRandom(wr, 1.2);
    accel.setWeights(w);
    std::vector<std::vector<double>> rows = sweepRows(90, 8);
    size_t r = 0;
    for (auto _ : state) {
        Activations act = accel.forward(rows[r]);
        benchmark::DoNotOptimize(act.layers.data());
        r = (r + 1) % rows.size();
    }
    state.counters["rows/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpatialForwardRowClean);

void
BM_SpatialForwardRowTask(benchmark::State &state)
{
    // One clean row of an 18-6-4 task on the 90-10-10 array, as
    // retraining forwards it: the task's neurons sum their used
    // synapses, and the 4 + 6 padding neurons (every word zero)
    // each output sigmoid(0) without a sum.
    // BM_SpatialForwardRowClean, with no padding, is the control.
    MlpTopology topo{18, 6, 4};
    SpatialBackend accel(AcceleratorConfig(), topo);
    DeepWeights w(topo);
    Rng wr(7);
    w.initRandom(wr, 1.2);
    accel.setWeights(w);
    std::vector<std::vector<double>> rows = sweepRows(18, 8);
    size_t r = 0;
    for (auto _ : state) {
        Activations act = accel.forward(rows[r]);
        benchmark::DoNotOptimize(act.layers.data());
        r = (r + 1) % rows.size();
    }
    state.counters["rows/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpatialForwardRowTask);

/**
 * The retraining benchmarks' array: an 18-10-4 task on the 90-10-10
 * array with 8 faulty latches (4 on used synapses, 4 on padding).
 */
std::unique_ptr<SpatialBackend>
faultyLatchArray(MlpTopology topo)
{
    auto accel = std::make_unique<SpatialBackend>(AcceleratorConfig(), topo);
    Rng rng(31);
    for (int k = 0; k < 8; ++k) {
        int neuron = static_cast<int>(rng.nextUint(10));
        int synapse = k < 4 ? static_cast<int>(rng.nextUint(18))
                            : 20 + static_cast<int>(rng.nextUint(70));
        accel->injectDefects(
            {UnitKind::WeightLatch, Layer::Hidden, neuron, synapse}, 2,
            rng);
    }
    return accel;
}

void
BM_SpatialSetWeights(benchmark::State &state)
{
    // Retraining's weight load: after every SGD step the trainer
    // installs its weights, which writes the task's logical block
    // and stores through every faulty latch, padding included.
    // Loads a cycle of 4 weight sets that differ by small steps, as
    // consecutive SGD steps do. Clean latches hold their word as
    // written; the faulty ones relax through their gate-level
    // simulations (their relaxation memo and repeat record).
    MlpTopology topo{18, 10, 4};
    auto accel = faultyLatchArray(topo);
    std::vector<DeepWeights> loads(4, DeepWeights(topo));
    Rng wr(7);
    loads[0].initRandom(wr, 1.2);
    for (size_t i = 1; i < loads.size(); ++i) {
        loads[i] = loads[i - 1];
        for (int j = 0; j < topo.hidden; ++j)
            loads[i].at(0, j, static_cast<int>(wr.nextUint(18))) += 0.004;
    }
    size_t i = 0;
    for (auto _ : state) {
        accel->setWeights(loads[i]);
        i = (i + 1) % loads.size();
    }
    SimCounters c = accel->simCounters();
    state.counters["hit_rate"] = static_cast<double>(c.memoHits) /
        static_cast<double>(c.scalarVectors);
    state.counters["loads/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpatialSetWeights);

void
BM_TrainerStepSpatial(benchmark::State &state)
{
    // Retraining's unit of work on the same faulty array: online SGD
    // steps, each a one-row forward through the array,
    // back-propagation on the companion core, and the weight install.
    // An iteration is one warm-started epoch over 32 rows (32 steps
    // after the warm start's install).
    MlpTopology topo{18, 10, 4};
    auto accel = faultyLatchArray(topo);
    Dataset ds;
    ds.numAttributes = topo.inputs;
    ds.numClasses = topo.outputs;
    Rng dr(5);
    for (int r = 0; r < 32; ++r) {
        std::vector<double> row(static_cast<size_t>(topo.inputs));
        for (double &v : row)
            v = dr.nextDouble();
        ds.rows.push_back(std::move(row));
        ds.labels.push_back(static_cast<int>(dr.nextUint(4)));
    }
    Hyper hyper;
    hyper.epochs = 1;
    Trainer trainer(hyper);
    DeepWeights init(topo);
    Rng wr(7);
    init.initRandom(wr, 1.2);
    Rng rng(3);
    for (auto _ : state) {
        DeepWeights w = trainer.train(*accel, ds, rng, &init);
        benchmark::DoNotOptimize(w);
    }
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * ds.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainerStepSpatial);

void
BM_TrainerStepSpatialClean(benchmark::State &state)
{
    // Baseline training's unit of work: online SGD steps of an
    // 18-6-4 task on the clean 90-10-10 array, each a one-row
    // forward (clean and constant neurons only), back-propagation
    // and the weight install. An iteration is one warm-started epoch
    // over 32 rows.
    MlpTopology topo{18, 6, 4};
    SpatialBackend accel(AcceleratorConfig(), topo);
    Dataset ds;
    ds.numAttributes = topo.inputs;
    ds.numClasses = topo.outputs;
    Rng dr(5);
    for (int r = 0; r < 32; ++r) {
        std::vector<double> row(static_cast<size_t>(topo.inputs));
        for (double &v : row)
            v = dr.nextDouble();
        ds.rows.push_back(std::move(row));
        ds.labels.push_back(static_cast<int>(dr.nextUint(4)));
    }
    Hyper hyper;
    hyper.epochs = 1;
    Trainer trainer(hyper);
    DeepWeights init(topo);
    Rng wr(7);
    init.initRandom(wr, 1.2);
    Rng rng(3);
    for (auto _ : state) {
        DeepWeights w = trainer.train(accel, ds, rng, &init);
        benchmark::DoNotOptimize(w);
    }
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * ds.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainerStepSpatialClean);

void
BM_Fix16FromDoubles(benchmark::State &state)
{
    // The install's quantization: one 18-10-4 logical block (234
    // words) through the bulk converter.
    MlpTopology topo{18, 10, 4};
    DeepWeights w(topo);
    Rng wr(7);
    w.initRandom(wr, 1.2);
    std::span<const double> hid = w.stage(0), out = w.stage(1);
    std::vector<Fix16> words(hid.size() + out.size());
    for (auto _ : state) {
        Fix16::fromDoubles(hid.data(), words.data(), hid.size());
        Fix16::fromDoubles(out.data(), words.data() + hid.size(),
                           out.size());
        benchmark::DoNotOptimize(words.data());
        benchmark::ClobberMemory();
    }
    state.counters["words/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * words.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fix16FromDoubles);

void
BM_LatchStoreRepeat(benchmark::State &state)
{
    // One faulty weight latch under a trainer-like store stream: a
    // 40-word cycle in which the word survives most steps and moves
    // by an LSB or two on the others, each store one two-word call
    // (EN=1, then EN=0). Repeated (net vector) keys replay from the
    // relaxation memo, and a store repeating the one before, which
    // left the net vector it started from, is answered by the repeat
    // record; BM_EvalLatchRegister prices a relaxation.
    auto nl = std::make_shared<const Netlist>(buildLatchRegister(16));
    Rng rng(17);
    OperatorSim sim(nl, injectTransistorDefects(*nl, 2, rng));
    std::vector<uint64_t> cycle(40);
    uint64_t word = rng.nextUint(1u << 16);
    for (auto &v : cycle) {
        if (rng.nextUint(4) == 0)
            word = (word + rng.nextUint(5) - 2) & 0xffff;
        v = word;
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.applyPair(cycle[i] | 1ull << 16, cycle[i]));
        i = i + 1 == cycle.size() ? 0 : i + 1;
    }
    SimCounters c = sim.counters();
    state.counters["hit_rate"] = static_cast<double>(c.memoHits) /
        static_cast<double>(c.scalarVectors);
    state.counters["stores/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LatchStoreRepeat);

void
BM_AcceleratorForwardFaulty(benchmark::State &state)
{
    // The plain-Accelerator sweep: the per-vector cost baseline the
    // wrapper batch paths are held to (within 2x).
    auto accel = pureFaultyArray({12, 4, 3}, 21);
    DeepWeights w({{12, 4, 3}});
    Rng wr(7);
    w.initRandom(wr, 1.2);
    accel->setWeights(w);
    sweepModel(state, *accel, sweepRows(12, 8));
}
BENCHMARK(BM_AcceleratorForwardFaulty)->Arg(0)->Arg(1);

void
BM_TimeMuxForwardFaulty(benchmark::State &state)
{
    // Fit topology (mux factor 1): isolates the mux engine's
    // per-pass weight-reload overhead against the plain sweep.
    auto accel = pureFaultyArray({12, 4, 3}, 21);
    TimeMuxedMlp mux(*accel, {12, 4, 3});
    DeepWeights w({{12, 4, 3}});
    Rng wr(7);
    w.initRandom(wr, 1.2);
    mux.setWeights(w);
    sweepModel(state, mux, sweepRows(12, 8));
}
BENCHMARK(BM_TimeMuxForwardFaulty)->Arg(0)->Arg(1);

void
BM_TimeMuxForwardFaultyMuxed(benchmark::State &state)
{
    // Oversized logical network (mux factor 4): the Fig 5/10/11
    // campaign shape where batching pays the most.
    auto accel = pureFaultyArray({12, 4, 3}, 21);
    TimeMuxedMlp mux(*accel, {12, 12, 3});
    DeepWeights w({{12, 12, 3}});
    Rng wr(7);
    w.initRandom(wr, 1.2);
    mux.setWeights(w);
    sweepModel(state, mux, sweepRows(12, 8));
}
BENCHMARK(BM_TimeMuxForwardFaultyMuxed)->Arg(0)->Arg(1);

void
BM_SpareForwardFaulty(benchmark::State &state)
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 6; // 3 copies of 2 logical outputs
    MlpTopology logical{12, 4, 2};
    Rng rng(33);
    std::unique_ptr<Accelerator> accel;
    do {
        accel = std::make_unique<Accelerator>(
            cfg, fullRowTopology(logical, cfg));
        DefectInjector inj(*accel, SitePool::outputCritical());
        inj.inject(1, rng);
    } while (!accel->batchPure());
    RowMappedMlp spared(*accel, logical, sparePlan(logical, 3));
    DeepWeights w(logical);
    Rng wr(7);
    w.initRandom(wr, 1.2);
    spared.setWeights(w);
    sweepModel(state, spared, sweepRows(12, 8));
}
BENCHMARK(BM_SpareForwardFaulty)->Arg(0)->Arg(1);

void
BM_DeepMuxForwardFaulty(benchmark::State &state)
{
    // 3-stage stack on the same array: the deep-campaign hot loop.
    auto accel = pureFaultyArray({12, 4, 3}, 21);
    DeepTopology topo{{12, 9, 7, 3}};
    DeepMuxedNetwork deep(*accel, topo);
    DeepWeights w(topo);
    Rng wr(7);
    w.initRandom(wr, 1.0);
    deep.setWeights(w);
    sweepModel(state, deep, sweepRows(12, 8));
}
BENCHMARK(BM_DeepMuxForwardFaulty)->Arg(0)->Arg(1);

} // namespace

#ifndef DTANN_BUILD_TYPE
#define DTANN_BUILD_TYPE "unknown"
#endif

namespace {

/**
 * The "dtann_build_type" recorded in an existing bench envelope at
 * @p path; empty when the file is absent, unreadable, or predates
 * build-type stamping.
 */
std::string
recordedBuildType(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream body;
    body << in.rdbuf();
    try {
        JsonValue v = jsonParse(body.str());
        if (const JsonValue *ctx = v.find("context"))
            if (const JsonValue *bt = ctx->find("dtann_build_type"))
                return bt->asString();
    } catch (const std::exception &) {
    }
    return "";
}

} // namespace

/**
 * Custom main: like every figure bench, mirror the results to
 * $DTANN_JSON_OUT/sim_throughput.json when that directory is set
 * (google-benchmark's own JSON reporter format), so the perf
 * trajectory of the simulator hot path is machine-readable. An
 * explicit --benchmark_out on the command line wins.
 *
 * The envelope's context records the dtann build type and the
 * negotiated lane width/ISA. Baseline guard: a JSON target that was
 * recorded from a Release build is never overwritten by any other
 * build type — debug numbers silently replacing a Release baseline
 * would invalidate every later regression comparison.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;
    std::string dir = jsonOutDir();
    std::string out_flag, fmt_flag;
    if (!dir.empty() && !has_out) {
        std::string out_path = dir + "/sim_throughput.json";
        std::string prev = recordedBuildType(out_path);
        if (prev == "Release" &&
            std::string(DTANN_BUILD_TYPE) != "Release") {
            std::fprintf(
                stderr,
                "bench_sim_throughput: refusing to overwrite '%s': "
                "it was recorded from a Release build and this is a "
                "%s build; rebuild with -DCMAKE_BUILD_TYPE=Release "
                "or point DTANN_JSON_OUT elsewhere\n",
                out_path.c_str(), DTANN_BUILD_TYPE);
            return 1;
        }
        out_flag = "--benchmark_out=" + out_path;
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    benchmark::AddCustomContext("dtann_build_type", DTANN_BUILD_TYPE);
    benchmark::AddCustomContext(
        "dtann_lanes", std::to_string(batchLaneWidth()));
    benchmark::AddCustomContext("dtann_lane_isa", batchLaneIsa());
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
