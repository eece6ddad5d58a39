/**
 * @file
 * Faulty-operator simulation wrapper.
 *
 * The accelerator model routes only defective operators through
 * gate-level simulation; clean ones use native fixed-point
 * arithmetic (the paper's methodology). An OperatorSim owns the
 * evaluation state of one such defective operator instance and
 * picks the fastest exact evaluation path for its fault set:
 *
 *  - wide-lane batch (applyLanes; 64/256/512 lanes per sweep, see
 *    circuit/lane_plane.hh and the DTANN_LANES knob): state-free
 *    fault sets on feedback-free netlists, cone-pruned when a
 *    clean model is available;
 *  - cone-pruned scalar (apply): feedback-free netlists with a
 *    clean model, any fault semantics (MEM, delay); a call sweeps
 *    the faulty gates' fan-in and the rest of the cone only when a
 *    faulty gate deviates from its clean function, else it returns
 *    the clean model's word (Evaluator's activation gate);
 *  - full scalar relaxation: everything else (e.g. latches); on
 *    feedback netlists behind an exact direct-mapped memo keyed by
 *    the evaluator's whole net vector.
 *
 * On the pruned and the feedback paths a call that repeats the
 * previous one, which left the state it started from, is answered
 * from a fixed-size record without touching the nets (DESIGN.md §9
 * "Repeat rule").
 *
 * All paths are bit-identical to the full scalar sweep. The env
 * knob DTANN_NO_BATCH forces the scalar path for equivalence
 * testing; a sim built without a clean model (CleanFn{}) runs the
 * unpruned full program, which is how tests reach the full sweep.
 * The underlying netlist is shared (immutable) across instances of
 * the same operator shape.
 */

#ifndef DTANN_RTL_OPERATOR_SIM_HH
#define DTANN_RTL_OPERATOR_SIM_HH

#include <memory>
#include <optional>

#include "circuit/batch_evaluator.hh"
#include "circuit/evaluator.hh"
#include "circuit/sim_counters.hh"
#include "rtl/fault_inject.hh"

namespace dtann {

/** A gate-level simulated operator instance with injected faults. */
class OperatorSim
{
  public:
    /**
     * @param netlist the shared operator netlist
     * @param injection the faults to install
     * @param clean optional native model of the defect-free
     *        operator (packed bits -> packed bits); enables cone
     *        pruning and batch splicing
     */
    OperatorSim(std::shared_ptr<const Netlist> netlist,
                Injection injection, CleanFn clean = {});

    /**
     * Evaluate the operator. Inputs are the netlist's primary
     * inputs packed LSB-first; the return value packs the primary
     * outputs. State (memory effects) persists across calls.
     *
     * On a feedback netlist a call whose net vector, inputs
     * applied, is in the relaxation memo replays the recorded
     * relaxation (see Evaluator::netValues()). On the cone-pruned
     * path a call that repeats the last one, which left the state
     * bits it started from, is answered from the repeat record
     * (DESIGN.md §9 "Repeat rule"). Either way outputs, nets and
     * every counter end as a sweep would leave them.
     */
    uint64_t apply(uint64_t input_bits);

    /**
     * apply(@p first) then apply(@p second), returning the second
     * output: a latch store (EN=1 with D, then EN=0) in one call.
     * On a feedback netlist a pair that repeats the last call,
     * which left the net vector it started from, is answered from
     * the repeat record without touching the nets (DESIGN.md §9
     * "Repeat rule"). Outputs, nets and every counter end as the
     * two calls would leave them.
     */
    uint64_t applyPair(uint64_t first, uint64_t second);

    /**
     * Evaluate @p count packed input vectors (any count; chunked
     * into laneCount()-wide batches internally). Results are
     * bit-identical to calling apply() in order at every lane
     * width; fault sets that need the scalar path fall back to
     * exactly that, preserving state order. A call of fewer than
     * kLaneCrossover vectors also walks them through apply() (repeat
     * record included): below that, one plane sweep costs more than
     * the scalar evaluations (DESIGN.md §9).
     */
    void applyLanes(const uint64_t *inputs, uint64_t *outputs,
                    size_t count);

    /** Fewest vectors per applyLanes() call that take the batch
     *  path; at least 2, so a one-row call never sweeps a plane. */
    static constexpr size_t kLaneCrossover = 6;
    static_assert(kLaneCrossover >= 2);

    /** Clear any internal (defect-induced or latch) state. */
    void reset();

    /** True when applyLanes() uses the wide-lane batch path. */
    bool batched() const { return batchLanes != 0; }

    /** Lanes per batch sweep (0 on the scalar fallback). */
    size_t laneCount() const { return batchLanes; }

    /** True when apply() runs the cone-pruned scalar path. */
    bool conePruned() const { return eval.conePruned(); }

    /** True when the last apply() hit the relaxation sweep cap.
     *  Always false on the batch path (feedback-free by
     *  construction). */
    bool lastOscillated() const { return eval.lastOscillated(); }

    /** Work counters accumulated by this instance. */
    SimCounters counters() const;

    /** Provenance of the injected faults. */
    const std::vector<InjectionRecord> &faultRecords() const
    {
        return records;
    }

    /** The underlying netlist. */
    const Netlist &netlist() const { return *nl; }

    /** Direct evaluator access (tests, amplitude probes). The
     *  caller may change the nets, so this drops the repeat
     *  record; the const overload keeps it. */
    Evaluator &
    evaluator()
    {
        last.calls = 0;
        return eval;
    }
    const Evaluator &evaluator() const { return eval; }

  private:
    /** Allocate the relaxation memo, or note that apply() records
     *  pruned calls (first call). */
    void decidePath();

    /** apply() on a feedback netlist, through the relaxation memo. */
    uint64_t applyRelaxed(uint64_t input_bits);

    /** Answer the call the repeat record stands for. */
    uint64_t answerRepeat();

    /**
     * One recorded relaxation of a feedback netlist. The net vector
     * it started from and the one it left live in relaxNets; the
     * rest is what evaluate() reports besides the nets.
     */
    struct RelaxEntry
    {
        uint64_t output;
        uint64_t gateEvals;
        int sweeps;
        bool oscillated;
        bool used;
    };
    /** Relaxation memo slots (a power of two). */
    static constexpr size_t relaxSlots = 64;
    static_assert((relaxSlots & (relaxSlots - 1)) == 0);

    std::shared_ptr<const Netlist> nl;
    std::vector<InjectionRecord> records;
    Evaluator eval;
    /** Lanes per batch sweep, 0 when the sim is not batched. */
    size_t batchLanes;
    /** Built by the first call that takes the batch path, so a sim
     *  that never batches (BIST scans, one-row training calls) never
     *  folds a lane program. */
    std::optional<BatchEvaluator> batch;
    /** Relaxation memo, allocated by the first apply() on a feedback
     *  netlist: entries, and per slot the start then the next net
     *  vector (2 x netValues().size() bytes). */
    std::vector<RelaxEntry> relax;
    std::vector<uint8_t> relaxNets;
    /** The net vector the last applyPair() on a feedback netlist
     *  started from (its buffer is reused). */
    std::vector<uint8_t> pairStart;
    bool pathDecided = false;
    /** Set by the first call when apply() runs the cone-pruned path
     *  with at most 64 state nets, so stateBits() tells whether a
     *  call left the state it started from. */
    bool prunedRecorded = false;
    /**
     * Repeat record: the last call's words, output and gate charge.
     * calls is 1 for an apply() on the pruned path and 2 for an
     * applyPair() on a feedback netlist, when that call left the
     * state bits (or the net vector) it started from and nothing
     * has touched the evaluator since; else 0. A call of the same
     * kind with the same words then starts where the recorded one
     * did and ends as the nets already are (DESIGN.md §9 "Repeat
     * rule").
     */
    struct Repeat
    {
        uint32_t calls = 0;
        uint64_t words[2] = {};
        uint64_t output = 0;
        uint64_t gateEvals = 0;
    } last;
    uint64_t memoHits = 0;
    uint64_t scalarVectors = 0;
    uint64_t batchVectors = 0;
};

} // namespace dtann

#endif // DTANN_RTL_OPERATOR_SIM_HH
