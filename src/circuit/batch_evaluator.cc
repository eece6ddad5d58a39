#include "circuit/batch_evaluator.hh"

#include <algorithm>

#include "circuit/evaluator.hh"
#include "common/logging.hh"

namespace dtann {

std::vector<LaneOp>
foldLaneOps(const Netlist &nl, const FaultSet &faults,
            const std::vector<uint32_t> *steps)
{
    // A state-free set folds no MEM entry, and the padding nets
    // (numNets() and up) fill only unused inputs and outputs, which
    // no table reads.
    const NetId nets = static_cast<NetId>(nl.numNets());
    std::vector<LaneOp> lane_ops;
    lane_ops.reserve(steps ? steps->size() : nl.numGates());
    foldTableOps(nl, faults, steps, [&](const TableOp &op) {
        dtann_assert(!op.mem, "lane op with a MEM entry");
        LaneOp l{{op.in[0], op.in[1], op.in[2], op.in[3]},
                 {op.out[0], op.out[1]},
                 {algebraicNormalForm(op.value[0]),
                  algebraicNormalForm(op.value[1])},
                 static_cast<uint8_t>((op.in[0] < nets) + (op.in[1] < nets) +
                                      (op.in[2] < nets) + (op.in[3] < nets)),
                 static_cast<uint8_t>((op.out[0] < nets) +
                                      (op.out[1] < nets))};
        dtann_assert((l.anf[0] | l.anf[1]) >> (1u << l.numIn) == 0,
                     "lane op reads an unused input");
        lane_ops.push_back(l);
    });
    return lane_ops;
}

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
BatchEvaluator::tryCreate(const Netlist &netlist, const FaultSet &faults,
                          CleanFn clean, size_t lanes,
                          std::shared_ptr<const FaultCone> cone)
{
    if (!supports(netlist, faults))
        return std::nullopt;
    return std::optional<BatchEvaluator>(BatchEvaluator(
        netlist, faults, std::move(clean), lanes, std::move(cone)));
}

BatchEvaluator::BatchEvaluator(const Netlist &netlist,
                               const FaultSet &faults, CleanFn clean,
                               size_t lanes,
                               std::shared_ptr<const FaultCone> cone_in)
    : nl(netlist), cleanFn(std::move(clean)),
      words(lanes / 64),
      sweepFn(laneSweepFor(lanes / 64))
{
    dtann_assert(lanes == 64 || lanes == 256 || lanes == 512,
                 "BatchEvaluator: bad lane width %zu", lanes);
    const char *why = nullptr;
    bool ok = supports(nl, faults, &why);
    dtann_assert(ok, "BatchEvaluator: %s", why ? why : "unsupported");
    if (cleanFn && !faults.empty())
        cone = cone_in ? std::move(cone_in)
                       : std::make_shared<const FaultCone>(
                             computeFaultCone(nl, faults));
    bool pruned = conePruned();
    progGates = pruned ? cone->activeCount : nl.numGates();
    prog = foldLaneOps(nl, faults, pruned ? &cone->steps : nullptr);
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
    // The planes carry nothing from one call to the next: every net
    // the program reads is a primary input, written below, or an
    // earlier op's output (a partly active cell may also read a
    // stale net, but only for an output nothing reads). So one set
    // of planes per thread serves every evaluator, and none
    // allocates or clears its own.
    thread_local std::vector<uint64_t> planes;
    if (planes.size() < nl.numNets() * words)
        planes.resize(nl.numNets() * words);
    uint64_t *net_lanes = planes.data();
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
            net_lanes[nl.inputs()[i] * words + b] = m[i];
    }
    ++sweepCount;
    gateSweepCount += progGates;
    sweepFn(prog.data(), prog.size(), net_lanes);
    bool pruned = conePruned();
    // Back the other way: word b of each simulated output plane is
    // a row, and the transpose's rows are the lanes' output words.
    // A pruned sweep simulated only the in-cone outputs; the rest
    // come from the clean native model, per lane.
    uint64_t sim = pruned ? cone->outputMask
        : n_out == 64     ? ~0ull
                          : (1ull << n_out) - 1;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t o = 0; o < 64; ++o)
            m[o] = sim >> o & 1 ? net_lanes[nl.outputs()[o] * words + b] : 0;
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
