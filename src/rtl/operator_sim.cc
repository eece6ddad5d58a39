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

uint64_t
OperatorSim::answerRepeat()
{
    // The recorded call started where this one starts and left the
    // nets, lastSweeps() and lastOscillated() as this one would:
    // charge its gates only.
    scalarVectors += last.calls;
    memoHits += last.calls;
    eval.repeatLast(last.gateEvals);
    return last.output;
}

uint64_t
OperatorSim::apply(uint64_t input_bits)
{
    if (last.calls == 1 && input_bits == last.words[0])
        return answerRepeat();
    ++scalarVectors;
    if (nl->hasFeedback()) {
        last.calls = 0;
        return applyRelaxed(input_bits);
    }
    if (!pathDecided) {
        // The pruned program is folded here, on the first call.
        pathDecided = true;
        prunedRecorded =
            eval.conePruned() && eval.stateNets().size() <= 64;
    }
    if (!prunedRecorded)
        return eval.evaluateBits(input_bits);
    // (input word, state bits) determines the call, so one that left
    // the state bits it started from can be repeated.
    uint64_t state = eval.stateBits();
    uint64_t evals = eval.gateEvals();
    uint64_t out = eval.evaluateBits(input_bits);
    last = {eval.stateBits() == state ? 1u : 0u, {input_bits, 0}, out,
            eval.gateEvals() - evals};
    return out;
}

uint64_t
OperatorSim::applyPair(uint64_t first, uint64_t second)
{
    if (last.calls == 2 && first == last.words[0] &&
        second == last.words[1])
        return answerRepeat();
    if (!nl->hasFeedback()) {
        apply(first);
        return apply(second);
    }
    // evaluate() reads nothing but the net vector, so a pair that
    // left the vector it started from can be repeated.
    pairStart = eval.netValues();
    uint64_t evals = eval.gateEvals();
    scalarVectors += 2;
    applyRelaxed(first);
    uint64_t out = applyRelaxed(second);
    last = {eval.netValues() == pairStart ? 2u : 0u, {first, second}, out,
            eval.gateEvals() - evals};
    return out;
}

uint64_t
OperatorSim::applyRelaxed(uint64_t input_bits)
{
    // evaluate() reads nothing but the net vector, so the vector
    // with the inputs applied is the whole key (the input word is
    // part of it) and the vector it leaves is the whole next state.
    eval.setInputBits(input_bits, nl->inputs().size());
    const std::vector<uint8_t> &net = eval.netValues();
    size_t bytes = net.size();
    if (relax.empty()) {
        // A latch that stores once (two relaxations) never repeats
        // one, so the memo waits for the third.
        if (bareRelaxations < 2) {
            ++bareRelaxations;
            eval.evaluate();
            return eval.outputBits(
                std::min<size_t>(nl->outputs().size(), 64));
        }
        relax.assign(relaxSlots, {0, 0, 0, false, false});
        relaxNets.assign(relaxSlots * 2 * bytes, 0);
    }
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
    if (e.used && std::memcmp(start, net.data(), bytes) == 0) {
        ++memoHits;
        eval.replayEvaluate(start + bytes, e.sweeps, e.oscillated,
                            e.gateEvals);
        return e.output;
    }
    std::memcpy(start, net.data(), bytes);
    uint64_t evals = eval.gateEvals();
    eval.evaluate();
    std::memcpy(start + bytes, net.data(), bytes);
    e = {eval.outputBits(std::min<size_t>(nl->outputs().size(), 64)),
         eval.gateEvals() - evals, eval.lastSweeps(),
         eval.lastOscillated(), true};
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
    }
}

void
OperatorSim::reset()
{
    eval.reset();
    last.calls = 0;
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
        // One sweep per evaluateLanes() call, and a sweep provisions
        // the whole plane whatever the chunk occupancy.
        c.batchSweeps = batch->sweeps();
        c.batchLaneSlots = c.batchSweeps * batchLanes;
        c.batchGateSweeps = batch->gateSweeps();
    }
    return c;
}

} // namespace dtann
