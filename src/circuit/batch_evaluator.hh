/**
 * @file
 * Bit-parallel (wide-lane) evaluation of combinational netlists,
 * clean or carrying a state-free fault set.
 *
 * Each net holds a lane plane of W consecutive 64-bit words (W in
 * {1, 4, 8} -> 64/256/512 lanes; see circuit/lane_plane.hh) whose
 * bit L is the net's value in lane L, and every gate evaluates all
 * lanes with a handful of bitwise operations — vectorized into
 * ymm/zmm registers when the machine has AVX2/AVX-512. The default
 * width is 64 (one word, the original layout, kept as the
 * differential oracle); callers on the campaign hot path pass
 * batchLaneWidth() to get the machine's best width, subject to the
 * DTANN_LANES knob. evaluateLanes() moves vectors in and out of the
 * planes by a 64x64 bit transpose per 64-lane block (transpose64()).
 *
 * Fault overrides are applied per gate through their truth table's
 * value plane: for each input combination whose table entry is One,
 * a selection mask picks the lanes presenting that combination. The
 * table's MEM plane must be empty — a MEM entry makes the gate's
 * output depend on the previous vector, which independent lanes
 * cannot represent — so eligibility is FaultSet::isStateless() on a
 * feedback-free netlist (see supports()/tryCreate()). OperatorSim
 * runs stateful sets through the scalar Evaluator: cone-pruned and
 * memoized when a clean model is given (DESIGN.md §9).
 */

#ifndef DTANN_CIRCUIT_BATCH_EVALUATOR_HH
#define DTANN_CIRCUIT_BATCH_EVALUATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/lane_plane.hh"
#include "circuit/netlist.hh"

namespace dtann {

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
     * @param faults fault set to apply (copied); must be state-free
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
        const Netlist &netlist, FaultSet faults = {}, CleanFn clean = {},
        size_t lanes = 64, std::shared_ptr<const FaultCone> cone = nullptr);

    /**
     * @param netlist the circuit; asserts supports(netlist, faults)
     *        — use tryCreate() when the answer is not known statically
     */
    explicit BatchEvaluator(const Netlist &netlist, FaultSet faults = {},
                            CleanFn clean = {}, size_t lanes = 64,
                            std::shared_ptr<const FaultCone> cone = nullptr);

    /** Lanes evaluated per sweep (64, 256 or 512). */
    size_t laneCount() const { return 64 * words; }

    /**
     * Set primary input @p index to a 64-lane word (lanes 64 and up
     * of a wider plane are cleared — the granular API addresses the
     * first word only; the packed paths use the full width).
     */
    void setInputLanes(size_t index, uint64_t lanes);

    /**
     * Evaluate all lanes in one topological sweep over every gate.
     * (The granular lane API never prunes, so outputLanes() is valid
     * for all outputs.)
     */
    void evaluate();

    /** Read primary output @p index as a 64-lane word (first word
     *  of the plane; pairs with setInputLanes()). */
    uint64_t outputLanes(size_t index) const;

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

    /** The netlist being evaluated. */
    const Netlist &netlist() const { return nl; }

    /** The installed fault set. */
    const FaultSet &faults() const { return faultSet; }

    /** True when the packed-vector paths run cone-pruned. */
    bool conePruned() const { return cone && cone->valid; }

    /** Batch sweeps executed so far (each covers up to laneCount()
     *  lanes). */
    uint64_t sweeps() const { return sweepCount; }

    /** Gates swept so far across all batch sweeps. */
    uint64_t gateSweeps() const { return gateSweepCount; }

  private:
    const Netlist &nl;
    FaultSet faultSet;
    CleanFn cleanFn;
    /** The fault cone, null unless both a clean model and a fault
     *  was given; its steps are the pruned sweep. */
    std::shared_ptr<const FaultCone> cone;

    /** Plane width in 64-bit words (1, 4 or 8). */
    size_t words;
    /** Sweep kernel for this width, best ISA the CPU executes. */
    LaneSweepFn sweepFn;
    /** Per-net lane planes, strided [net * words + w]. */
    std::vector<uint64_t> netLanes;

    /** True when any fault table is populated. */
    bool haveFaults;
    /** Sentinel valuePlane entry: gate keeps its native function. */
    static constexpr uint32_t noOverride = kLaneNoOverride;
    /** Per-gate truth-table value plane (one bit per input combo;
     *  the MEM plane is empty by the isStateless() precondition).
     *  Entry is noOverride when the gate is clean. */
    std::vector<uint32_t> valuePlane;
    /** Per-gate, per-input stuck value (-1 = none). */
    std::vector<std::array<int8_t, 4>> inputForce;
    /** Per-gate output stuck value (-1 = none). */
    std::vector<int8_t> outputForce;

    uint64_t sweepCount = 0;
    uint64_t gateSweepCount = 0;

    /** Sweep @p steps (every gate when null), charging @p gates. */
    void sweepGates(const std::vector<uint32_t> *steps, size_t gates);
};

/**
 * Transpose the 64x64 bit matrix @p m in place: bit c of m[r] moves
 * to bit r of m[c]. Six rounds of masked swaps of ever smaller
 * blocks, each round 32 word pairs.
 */
void transpose64(uint64_t *m);

} // namespace dtann

#endif // DTANN_CIRCUIT_BATCH_EVALUATOR_HH
