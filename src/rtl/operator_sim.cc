#include "rtl/operator_sim.hh"

#include <bit>

#include "circuit/lane_plane.hh"
#include "common/env.hh"

namespace dtann {

OperatorSim::OperatorSim(std::shared_ptr<const Netlist> netlist,
                         Injection injection, CleanFn clean)
    : nl(std::move(netlist)), records(std::move(injection.records)),
      eval(*nl, injection.faults, noCone() ? CleanFn{} : clean),
      // The evaluator's cone is the batch evaluator's too: computed
      // once per simulation.
      batch(noBatch()
                ? std::optional<BatchEvaluator>{}
                : BatchEvaluator::tryCreate(
                      *nl, std::move(injection.faults),
                      noCone() ? CleanFn{} : std::move(clean),
                      batchLaneWidth(), &eval.faultCone()))
{
}

uint64_t
OperatorSim::apply(uint64_t input_bits)
{
    ++scalarVectors;
    if (!memoDecided) {
        memoDecided = true;
        if (eval.conePruned() && eval.stateNets().size() <= 64)
            memo.assign(memoSlots, {emptyKey, 0, 0, 0});
    }
    if (memo.empty() || input_bits == emptyKey)
        return eval.evaluateBits(input_bits);

    uint64_t state = eval.stateBits();
    uint64_t h = (input_bits ^ (state * 0xc2b2ae3d27d4eb4full)) *
        0x9e3779b97f4a7c15ull;
    MemoEntry &e = memo[h >> (64 - std::bit_width(memoSlots - 1))];
    if (e.input == input_bits && e.state == state) {
        ++memoHits;
        eval.replayBits(input_bits, e.output, e.next);
        return e.output;
    }
    uint64_t out = eval.evaluateBits(input_bits);
    e = {input_bits, state, out, eval.stateBits()};
    return out;
}

void
OperatorSim::applyLanes(const uint64_t *inputs, uint64_t *outputs,
                        size_t count)
{
    if (!batch) {
        // Scalar fallback: evaluation order matters (memory
        // effects), so walk the vectors in order.
        for (size_t i = 0; i < count; ++i)
            outputs[i] = apply(inputs[i]);
        return;
    }
    size_t width = batch->laneCount();
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
