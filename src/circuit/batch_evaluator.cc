#include "circuit/batch_evaluator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

bool
BatchEvaluator::supports(const Netlist &netlist, const FaultSet &faults,
                         const char **why)
{
    if (netlist.hasFeedback()) {
        if (why)
            *why = "netlist has feedback (needs relaxation)";
        return false;
    }
    if (!faults.isStateless()) {
        if (why)
            *why = "fault set is stateful (MEM or delay faults)";
        return false;
    }
    if (why)
        *why = nullptr;
    return true;
}

std::optional<BatchEvaluator>
BatchEvaluator::tryCreate(const Netlist &netlist, FaultSet faults,
                          CleanFn clean, size_t lanes,
                          std::shared_ptr<const FaultCone> cone)
{
    if (!supports(netlist, faults))
        return std::nullopt;
    return std::optional<BatchEvaluator>(BatchEvaluator(
        netlist, std::move(faults), std::move(clean), lanes,
        std::move(cone)));
}

BatchEvaluator::BatchEvaluator(const Netlist &netlist, FaultSet faults,
                               CleanFn clean, size_t lanes,
                               std::shared_ptr<const FaultCone> cone_in)
    : nl(netlist), faultSet(std::move(faults)),
      cleanFn(std::move(clean)),
      words(lanes / 64),
      sweepFn(laneSweepFor(lanes / 64)),
      netLanes(netlist.numNets() * (lanes / 64), 0),
      haveFaults(!this->faultSet.empty())
{
    dtann_assert(lanes == 64 || lanes == 256 || lanes == 512,
                 "BatchEvaluator: bad lane width %zu", lanes);
    const char *why = nullptr;
    bool ok = supports(nl, faultSet, &why);
    dtann_assert(ok, "BatchEvaluator: %s", why ? why : "unsupported");
    if (haveFaults) {
        size_t n = nl.numGates();
        valuePlane.assign(n, noOverride);
        inputForce.assign(n, {-1, -1, -1, -1});
        outputForce.assign(n, -1);
        for (const auto &[gi, fn] : faultSet.overrides) {
            dtann_assert(gi < n, "override on unknown gate %u", gi);
            int arity = nl.gate(gi).arity();
            dtann_assert(fn.numInputs() == arity,
                         "override arity mismatch on gate %u", gi);
            // Materialise the table's value plane; the MEM plane is
            // empty (isStateless() checked above).
            uint32_t plane = 0;
            for (uint32_t combo = 0; combo < (1u << arity); ++combo) {
                if (fn.eval(combo) == LogicValue::One)
                    plane |= 1u << combo;
            }
            valuePlane[gi] = plane;
        }
        for (const StuckAtFault &f : faultSet.stuckAt) {
            dtann_assert(f.gate < n, "stuck-at on unknown gate %u",
                         f.gate);
            if (f.input < 0) {
                outputForce[f.gate] = f.value ? 1 : 0;
            } else {
                dtann_assert(f.input < nl.gate(f.gate).arity(),
                             "stuck-at input index out of range");
                inputForce[f.gate][static_cast<size_t>(f.input)] =
                    f.value ? 1 : 0;
            }
        }
        if (cleanFn)
            cone = cone_in ? std::move(cone_in)
                           : std::make_shared<const FaultCone>(
                                 computeFaultCone(nl, faultSet));
    }
}

void
BatchEvaluator::setInputLanes(size_t index, uint64_t lanes)
{
    dtann_assert(index < nl.inputs().size(), "input index out of range");
    uint64_t *plane = &netLanes[nl.inputs()[index] * words];
    plane[0] = lanes;
    for (size_t w = 1; w < words; ++w)
        plane[w] = 0;
}

void
BatchEvaluator::evaluate()
{
    sweepGates(nullptr, nl.numGates());
}

void
BatchEvaluator::sweepGates(const std::vector<uint32_t> *steps,
                           size_t gates)
{
    size_t n = steps ? steps->size() : nl.numGates();
    ++sweepCount;
    gateSweepCount += gates;
    if (n == 0)
        return;
    // The sweep itself lives in a width-templated kernel picked at
    // construction (see circuit/lane_plane.hh): the W-word loops
    // vectorize in the per-ISA translation units, and W == 1 is PR
    // 3's original single-word sweep.
    LaneSweepCtx ctx;
    ctx.gates = &nl.gate(0);
    ctx.active = steps ? steps->data() : nullptr;
    ctx.count = n;
    ctx.cells = nl.cellIndex() ? nl.cellIndex()->data() : nullptr;
    ctx.haveFaults = haveFaults;
    ctx.valuePlane = haveFaults ? valuePlane.data() : nullptr;
    ctx.inputForce =
        haveFaults ? inputForce.data()->data() : nullptr;
    ctx.outputForce = haveFaults ? outputForce.data() : nullptr;
    ctx.netLanes = netLanes.data();
    sweepFn(ctx);
}

uint64_t
BatchEvaluator::outputLanes(size_t index) const
{
    dtann_assert(index < nl.outputs().size(),
                 "output index out of range");
    return netLanes[nl.outputs()[index] * words];
}

void
BatchEvaluator::evaluateLanes(const uint64_t *vectors, uint64_t *out,
                              size_t count)
{
    dtann_assert(count <= laneCount(), "at most laneCount() lanes");
    size_t n_in = nl.inputs().size();
    dtann_assert(n_in <= 64, "at most 64 primary inputs");
    size_t n_out = nl.outputs().size();
    dtann_assert(n_out <= 64, "at most 64 primary outputs");
    // Block b of the vectors, lane by input bit, is a 64x64 bit
    // matrix; its transpose holds word b of every input plane.
    // Words past the last vector are cleared.
    uint64_t m[64];
    size_t blocks = (count + 63) / 64;
    for (size_t b = 0; b < words; ++b) {
        size_t lanes = b < blocks ? std::min<size_t>(64, count - 64 * b) : 0;
        std::copy(vectors + 64 * b, vectors + 64 * b + lanes, m);
        std::fill(m + lanes, m + 64, 0);
        if (lanes)
            transpose64(m);
        for (size_t i = 0; i < n_in; ++i)
            netLanes[nl.inputs()[i] * words + b] = m[i];
    }
    bool pruned = conePruned();
    if (pruned)
        sweepGates(&cone->steps, cone->activeCount);
    else
        sweepGates(nullptr, nl.numGates());
    // Back the other way: word b of each simulated output plane is
    // a row, and the transpose's rows are the lanes' output words.
    // A pruned sweep simulated only the in-cone outputs; the rest
    // come from the clean native model, per lane.
    uint64_t sim = pruned ? cone->outputMask
        : n_out == 64     ? ~0ull
                          : (1ull << n_out) - 1;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t o = 0; o < 64; ++o)
            m[o] = sim >> o & 1 ? netLanes[nl.outputs()[o] * words + b] : 0;
        transpose64(m);
        std::copy(m, m + std::min<size_t>(64, count - 64 * b), out + 64 * b);
    }
    if (pruned)
        for (size_t l = 0; l < count; ++l)
            out[l] |= cleanFn(vectors[l]) & ~sim;
}

std::vector<uint64_t>
BatchEvaluator::evaluateVectors(const std::vector<uint64_t> &vectors)
{
    std::vector<uint64_t> result(vectors.size(), 0);
    if (!vectors.empty())
        evaluateLanes(vectors.data(), result.data(), vectors.size());
    return result;
}

void
transpose64(uint64_t *m)
{
    // Round j swaps, in every 2j x 2j block, the top-right j x j
    // block (rows with bit j clear, columns with it set) with the
    // bottom-left one.
    uint64_t mask = 0x00000000ffffffffull;
    for (size_t j = 32; j; j >>= 1, mask ^= mask << j) {
        for (size_t base = 0; base < 64; base += 2 * j) {
            for (size_t k = base; k < base + j; ++k) {
                uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
                m[k] ^= t << j;
                m[k + j] ^= t;
            }
        }
    }
}

} // namespace dtann
