/**
 * @file
 * Per-gate reference interpreter for netlist evaluation (tests only).
 *
 * This is the straightforward interpreter the folded Evaluator
 * replaced: every sweep looks each gate's faults up in side tables
 * (input stuck-ats, override truth table, output stuck-at, delay
 * flag) and evaluates it gate by gate. It shares no evaluation code
 * with Evaluator's op program, so the differential suite can use it
 * as an independent oracle for stateful fault semantics (MEM
 * retention, delayed outputs, stacked faults, the relaxation sweep
 * cap) and for the gate-evaluation count. Its cone-pruned path
 * sweeps the gate-level reference cone (reference_cone.hh), not the
 * production cell closure.
 */

#ifndef DTANN_TESTS_CIRCUIT_REFERENCE_EVALUATOR_HH
#define DTANN_TESTS_CIRCUIT_REFERENCE_EVALUATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/netlist.hh"
#include "reference_cone.hh"

namespace dtann {

/** Side-table gate interpreter; same interface subset as Evaluator. */
class ReferenceEvaluator
{
  public:
    /** Same contract as Evaluator's constructor. */
    explicit ReferenceEvaluator(const Netlist &netlist,
                                FaultSet faults = {},
                                CleanFn clean = {});

    // Internal tables point into the owned fault set.
    ReferenceEvaluator(const ReferenceEvaluator &) = delete;
    ReferenceEvaluator &operator=(const ReferenceEvaluator &) = delete;

    /** Clear all state (nets and delayed-gate stores) to 0. */
    void reset();
    /** Set primary input @p index (bus order) to @p value. */
    void setInput(size_t index, bool value);
    /** Set the first @p count primary inputs from packed bits. */
    void setInputBits(uint64_t bits, size_t count);
    /** Propagate values until stable (or the sweep cap). */
    void evaluate();
    /** Read the first @p count primary outputs as packed bits. */
    uint64_t outputBits(size_t count) const;
    /** Set all inputs, evaluate (cone-pruned when possible), read. */
    uint64_t evaluateBits(uint64_t input_bits);

    /** True when the last evaluate() hit the sweep cap. */
    bool lastOscillated() const { return oscillated; }
    /** Total scalar gate evaluations (gates x sweeps) so far. */
    uint64_t gateEvals() const { return gateEvalCount; }
    /** True when evaluateBits() runs the cone-pruned path. */
    bool conePruned() const { return cone.valid; }
    /** Current value of net @p n. */
    bool net(NetId n) const { return netVal[n] != 0; }
    /** Stored output of delayed gate @p gi. */
    bool delayStored(uint32_t gi) const { return delayStore[gi] != 0; }

  private:
    const Netlist &nl;
    FaultSet faultSet;
    CleanFn cleanFn;
    ReferenceCone cone;

    std::vector<uint8_t> netVal;
    std::vector<uint8_t> delayStore;
    std::vector<const GateFunction *> overridePtr;
    std::vector<uint8_t> delayedFlag;
    std::vector<std::array<int8_t, 4>> inputForce;
    std::vector<int8_t> outputForce;
    bool haveFaults;
    bool needsRelaxation;

    int sweeps = 0;
    bool oscillated = false;
    uint64_t gateEvalCount = 0;

    uint32_t gateInputs(size_t gi) const;
    void runSweeps(const std::vector<uint32_t> *active);
    void latchDelayed();
};

} // namespace dtann

#endif // DTANN_TESTS_CIRCUIT_REFERENCE_EVALUATOR_HH
