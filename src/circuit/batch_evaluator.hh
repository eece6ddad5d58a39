/**
 * @file
 * Bit-parallel (wide-lane) evaluation of combinational netlists,
 * clean or carrying a state-free fault set.
 *
 * Each net holds a lane plane of W consecutive 64-bit words (W in
 * {1, 4, 8} -> 64/256/512 lanes; see circuit/lane_plane.hh) whose
 * bit L is the net's value in lane L. At construction the evaluator
 * folds its program with the scalar Evaluator's fold (foldTableOps():
 * the cone's steps when cone-pruned, else every gate) and writes
 * each op's tables in algebraic normal form. A sweep then evaluates
 * every op, clean or faulty gate or clean cell, as an XOR of
 * products of its input planes, vectorized into ymm/zmm registers
 * when the machine has AVX2/AVX-512. The default width is 64 (one
 * word, kept as the differential oracle); callers on the campaign
 * hot path pass batchLaneWidth() to get the machine's best width,
 * subject to the DTANN_LANES knob. evaluateLanes() moves vectors in
 * and out of the planes by a 64x64 bit transpose per 64-lane block
 * (transpose64()). The planes hold nothing between calls, so they
 * are per-thread scratch shared by every evaluator on the thread.
 *
 * Every lane sweeps the same tables, so a folded table must not
 * hold a MEM entry: that makes the gate's output depend on the
 * previous vector, which independent lanes cannot represent. So
 * eligibility is FaultSet::isStateless() on a feedback-free netlist
 * (see supports()/tryCreate()). OperatorSim runs stateful sets
 * through the scalar Evaluator, cone-pruned when a clean model is
 * given (DESIGN.md §9).
 */

#ifndef DTANN_CIRCUIT_BATCH_EVALUATOR_HH
#define DTANN_CIRCUIT_BATCH_EVALUATOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/lane_plane.hh"
#include "circuit/netlist.hh"

namespace dtann {

/**
 * foldTableOps() of @p steps (every gate when null) as lane ops,
 * each output table in algebraic normal form. @p faults must be
 * state-free.
 */
std::vector<LaneOp> foldLaneOps(const Netlist &nl, const FaultSet &faults,
                                const std::vector<uint32_t> *steps);

/** Wide-lane evaluator for combinational netlists. */
class BatchEvaluator
{
  public:
    /**
     * True when (netlist, faults) is batchable: feedback-free and a
     * state-free fault set. When false and @p why is non-null, *why
     * points at a static string naming the blocking condition.
     */
    static bool supports(const Netlist &netlist, const FaultSet &faults,
                         const char **why = nullptr);

    /**
     * Build a batch evaluator, or nullopt when supports() is false.
     * Callers fall back to the scalar Evaluator on nullopt.
     *
     * @param netlist the circuit; must outlive the evaluator
     * @param faults fault set to apply (folded, not kept); must be
     *        state-free
     * @param clean optional native model of the defect-free
     *        operator; when given, the packed-vector paths
     *        (evaluateLanes/evaluateVectors) sweep only the fault
     *        cone and splice out-of-cone output bits from it
     * @param lanes plane width: 64 (default, the single-word
     *        oracle), 256 or 512; batchLaneWidth() resolves the
     *        machine's best width from the DTANN_LANES knob
     * @param cone optional computeFaultCone(netlist, faults), for a
     *        caller that builds several evaluators over one fault
     *        set (shared; computed here when null)
     */
    static std::optional<BatchEvaluator> tryCreate(
        const Netlist &netlist, const FaultSet &faults = {},
        CleanFn clean = {}, size_t lanes = 64,
        std::shared_ptr<const FaultCone> cone = nullptr);

    /**
     * @param netlist the circuit; asserts supports(netlist, faults)
     *        — use tryCreate() when the answer is not known statically
     */
    explicit BatchEvaluator(const Netlist &netlist,
                            const FaultSet &faults = {},
                            CleanFn clean = {}, size_t lanes = 64,
                            std::shared_ptr<const FaultCone> cone = nullptr);

    /** Lanes evaluated per sweep (64, 256 or 512). */
    size_t laneCount() const { return 64 * words; }

    /**
     * Evaluate up to laneCount() packed input vectors at once,
     * cone-pruned when a clean model was supplied.
     *
     * @param vectors packed input bits, one per lane
     * @param out packed output bits per lane (count entries)
     * @param count number of vectors (<= laneCount())
     */
    void evaluateLanes(const uint64_t *vectors, uint64_t *out,
                       size_t count);

    /** Convenience wrapper over evaluateLanes(). */
    std::vector<uint64_t> evaluateVectors(
        const std::vector<uint64_t> &vectors);

    /** True when the packed-vector paths run cone-pruned. */
    bool conePruned() const { return cone && cone->valid; }

    /** Batch sweeps executed so far (each covers up to laneCount()
     *  lanes). */
    uint64_t sweeps() const { return sweepCount; }

    /** Gates swept so far across all batch sweeps. */
    uint64_t gateSweeps() const { return gateSweepCount; }

  private:
    const Netlist &nl;
    CleanFn cleanFn;
    /** The fault cone, null unless both a clean model and a fault
     *  was given; its steps are the pruned program. */
    std::shared_ptr<const FaultCone> cone;

    /** Plane width in 64-bit words (1, 4 or 8). */
    size_t words;
    /** Sweep kernel for this width, best ISA the CPU executes. */
    LaneSweepFn sweepFn;
    /** The folded program: the cone's steps when conePruned(), else
     *  every gate. */
    std::vector<LaneOp> prog;
    /** Gates one sweep of prog stands for: what it charges to
     *  gateSweeps(). */
    size_t progGates;

    uint64_t sweepCount = 0;
    uint64_t gateSweepCount = 0;
};

/**
 * Transpose the 64x64 bit matrix @p m in place: bit c of m[r] moves
 * to bit r of m[c]. Six rounds of masked swaps of ever smaller
 * blocks, each round 32 word pairs.
 */
void transpose64(uint64_t *m);

} // namespace dtann

#endif // DTANN_CIRCUIT_BATCH_EVALUATOR_HH
