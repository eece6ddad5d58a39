#include "rtl/operator_sim.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "circuit/lane_plane.hh"
#include "common/env.hh"

namespace dtann {

OperatorSim::OperatorSim(std::shared_ptr<const Netlist> netlist,
                         Injection injection, CleanFn clean)
    : nl(std::move(netlist)), records(std::move(injection.records)),
      eval(*nl, std::move(injection.faults), std::move(clean)),
      batchLanes(!noBatch() && BatchEvaluator::supports(*nl, eval.faults())
                     ? batchLaneWidth()
                     : 0)
{
}

void
OperatorSim::decideMemo()
{
    memoDecided = true;
    if (eval.conePruned() && eval.stateNets().size() <= 64) {
        memo.assign(memoSlots, {emptyKey, 0, 0, 0});
        prunedGates = eval.faultCone()->activeCount;
    } else if (nl->hasFeedback()) {
        relax.assign(relaxSlots, {0, 0, 0, false, false});
        relaxNets.assign(relaxSlots * 2 * eval.netValues().size(), 0);
    }
}

uint64_t
OperatorSim::apply(uint64_t input_bits)
{
    ++scalarVectors;
    if (repeatValid && input_bits == repeatInput) {
        // The last call left the state it started from, so the memo
        // holds (input, state) and replaying it would write what the
        // nets already hold: charge the hit only.
        ++memoHits;
        eval.repeatLast(prunedGates);
        return repeatOutput;
    }
    if (!memoDecided)
        decideMemo();
    if (!relax.empty()) {
        pair.valid = pair.fixed = false;
        RelaxCall call;
        return applyRelaxed(input_bits, call);
    }
    if (memo.empty() || input_bits == emptyKey) {
        repeatValid = false;
        return eval.evaluateBits(input_bits);
    }

    uint64_t state = eval.stateBits();
    uint64_t h = (input_bits ^ (state * 0xc2b2ae3d27d4eb4full)) *
        0x9e3779b97f4a7c15ull;
    MemoEntry &e = memo[h >> (64 - std::bit_width(memoSlots - 1))];
    if (e.input == input_bits && e.state == state) {
        ++memoHits;
        eval.replayBits(input_bits, e.output, e.next);
    } else {
        uint64_t out = eval.evaluateBits(input_bits);
        e = {input_bits, state, out, eval.stateBits()};
    }
    repeatValid = e.next == state;
    repeatInput = input_bits;
    repeatOutput = e.output;
    return e.output;
}

uint64_t
OperatorSim::applyPair(uint64_t first, uint64_t second)
{
    if (pair.fixed && first == pair.words[0] && second == pair.words[1]) {
        // The nets are a fixed point of this pair: both calls would
        // hit the recorded slots and leave them, sweep count and
        // oscillation flag included, as they are.
        scalarVectors += 2;
        memoHits += 2;
        eval.repeatLast(pair.gateEvals);
        return pair.output;
    }
    if (!memoDecided)
        decideMemo();
    if (relax.empty()) {
        apply(first);
        return apply(second);
    }
    // The pair repeats the last one slot for slot, all hits: both
    // slots still hold the vectors the last pair started its calls
    // from, so this pair started where the last one did and ends
    // where it started (DESIGN.md §9 "Repeat rule").
    bool follows = pair.valid && first == pair.words[0] &&
        second == pair.words[1];
    scalarVectors += 2;
    RelaxCall a, b;
    applyRelaxed(first, a);
    uint64_t out = applyRelaxed(second, b);
    bool fixed = follows && a.hit && b.hit && a.slot == pair.slots[0] &&
        b.slot == pair.slots[1];
    pair = {true, fixed, {first, second}, {a.slot, b.slot}, out,
            a.gateEvals + b.gateEvals};
    return out;
}

uint64_t
OperatorSim::applyRelaxed(uint64_t input_bits, RelaxCall &call)
{
    // evaluate() reads nothing but the net vector, so the vector
    // with the inputs applied is the whole key (the input word is
    // part of it) and the vector it leaves is the whole next state.
    eval.setInputBits(input_bits, nl->inputs().size());
    const std::vector<uint8_t> &net = eval.netValues();
    size_t bytes = net.size();
    uint64_t h = 0;
    for (size_t off = 0; off < bytes; off += 8) {
        uint64_t word = 0;
        std::memcpy(&word, net.data() + off, std::min<size_t>(8, bytes - off));
        h = std::rotl((h ^ word) * 0x9e3779b97f4a7c15ull, 29);
    }
    h *= 0xc2b2ae3d27d4eb4full;
    size_t slot = h >> (64 - std::bit_width(relaxSlots - 1));
    RelaxEntry &e = relax[slot];
    uint8_t *start = relaxNets.data() + slot * 2 * bytes;
    call.slot = slot;
    call.hit = e.used && std::memcmp(start, net.data(), bytes) == 0;
    if (call.hit) {
        ++memoHits;
        eval.replayEvaluate(start + bytes, e.sweeps, e.oscillated,
                            e.gateEvals);
        call.gateEvals = e.gateEvals;
        return e.output;
    }
    std::memcpy(start, net.data(), bytes);
    uint64_t evals = eval.gateEvals();
    eval.evaluate();
    std::memcpy(start + bytes, net.data(), bytes);
    e = {eval.outputBits(std::min<size_t>(nl->outputs().size(), 64)),
         eval.gateEvals() - evals, eval.lastSweeps(),
         eval.lastOscillated(), true};
    call.gateEvals = e.gateEvals;
    return e.output;
}

void
OperatorSim::applyLanes(const uint64_t *inputs, uint64_t *outputs,
                        size_t count)
{
    if (!batchLanes || count < kLaneCrossover) {
        // Scalar path: evaluation order matters (memory effects), so
        // walk the vectors in order. A batched sim is state-free, so
        // taking it for a short call changes no output.
        for (size_t i = 0; i < count; ++i)
            outputs[i] = apply(inputs[i]);
        return;
    }
    // The evaluator's fault set, clean model and cone (shared) are
    // the batch evaluator's too.
    if (!batch)
        batch.emplace(*nl, eval.faults(), eval.cleanModel(), batchLanes,
                      eval.faultCone());
    size_t width = batchLanes;
    for (size_t off = 0; off < count; off += width) {
        size_t chunk = std::min(width, count - off);
        batch->evaluateLanes(inputs + off, outputs + off, chunk);
        batchVectors += chunk;
        laneSlots += width; // a sweep provisions the whole plane
    }
}

void
OperatorSim::reset()
{
    eval.reset();
    dropRepeats();
}

SimCounters
OperatorSim::counters() const
{
    SimCounters c;
    c.scalarVectors = scalarVectors;
    c.batchVectors = batchVectors;
    c.gateEvals = eval.gateEvals();
    c.memoHits = memoHits;
    if (batch) {
        c.batchSweeps = batch->sweeps();
        // Sweeps driven through applyLanes() report their exact
        // provisioned slots; sweeps some other path executed on the
        // evaluator directly fall back to the full-width estimate.
        uint64_t accounted = laneSlots / batch->laneCount();
        c.batchLaneSlots = laneSlots +
            (batch->sweeps() - std::min(batch->sweeps(), accounted)) *
                batch->laneCount();
        c.batchGateSweeps = batch->gateSweeps();
    }
    return c;
}

} // namespace dtann
