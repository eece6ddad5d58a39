/**
 * @file
 * Stateful netlist evaluation.
 *
 * The evaluator resolves a netlist by relaxation: it sweeps gates in
 * construction order until no net changes. Builders emit gates
 * topologically, so defect-free combinational netlists converge in
 * one sweep; feedback structures (cross-coupled NAND latches) and
 * faulty gates with MEM entries converge in a few. Net values
 * persist across evaluations, which is what gives faulty gates their
 * memory behaviour.
 *
 * Before the first sweep every gate's faults (input stuck-ats,
 * transistor override, output stuck-at) fold into one 16-entry
 * {value, mem} truth table, and the gates to sweep are laid out as a
 * flat op program: foldTableOps(), which the lane BatchEvaluator
 * shares (see DESIGN.md §9). The sweep loop is then the same
 * for clean and faulty gates: gather up to four input bits, index the
 * table, keep the old value on a MEM entry. On the cone-pruned path
 * of an indexed netlist each clean bit-cell folds into one such op
 * with up to two outputs (DESIGN.md §9 "Cell ops").
 *
 * The pruned program is split into a prefix (the faulty gates and
 * their transitive fan-in) and the rest. A pruned call sweeps the
 * prefix, then checks each faulty gate's output against its clean
 * function of its input nets; when none deviates, every downstream
 * net is clean, so the call returns the clean model's word and skips
 * the rest (DESIGN.md §9 "Activation gate").
 */

#ifndef DTANN_CIRCUIT_EVALUATOR_HH
#define DTANN_CIRCUIT_EVALUATOR_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/netlist.hh"

namespace dtann {

/**
 * One op of a folded program: a gate, or on a pruned program a whole
 * clean cell (DESIGN.md §9 "Cell ops"). Unused inputs read the
 * constant-zero net, so the table index is always the 4-bit shift-or
 * of the input nets. Output o drives bit idx of value[o]; an unused
 * output writes 0 to the sink net, which nothing reads (so no op
 * waits on that store). A set mem bit (gate ops only) keeps the
 * outputs' previous values.
 */
struct TableOp
{
    NetId in[4];
    NetId out[2];
    uint16_t value[2];
    uint16_t mem;
};

/**
 * One fault set folded over one netlist: the faults each faulty gate
 * carries, gathered once (foldTableOps()).
 */
class TableFold
{
  public:
    TableFold(const Netlist &nl, const FaultSet &faults);

    /** The faults one gate carries, gathered from a FaultSet. */
    struct GateFaults
    {
        const GateFunction *override = nullptr;
        uint32_t forceMask = 0; ///< inputs held by a stuck-at
        uint32_t forceBits = 0; ///< their stuck values
        int outputForce = -1;   ///< output stuck value, -1 = none
        NetId store = invalidNet; ///< a delayed gate's stored-output net
    };

    /** The faults of gate @p gi, or null when it carries none. */
    const GateFaults *
    faultsOf(uint32_t gi) const
    {
        auto it = std::lower_bound(faulty.begin(), faulty.end(), gi);
        return it != faulty.end() && *it == gi
            ? &gateFaults[static_cast<size_t>(it - faulty.begin())]
            : nullptr;
    }

    /** The op of faulty gate @p gi carrying @p gf; a delayed gate's
     *  latch table goes to @p pending when given. */
    TableOp faultyOp(uint32_t gi, const GateFaults &gf,
                     std::vector<TableOp> *pending) const;

    /** The constant-zero net unused inputs read, and the sink net
     *  unused outputs write. */
    NetId zeroNet;
    NetId sink;

  private:
    const Netlist &nl;
    /** The faulty gates, ascending, and each one's faults. */
    std::vector<uint32_t> faulty;
    std::vector<GateFaults> gateFaults;
};

/**
 * Fold @p faults into table ops over @p steps of @p nl (a FaultCone's
 * steps; every gate when null) and hand each, in step order, to
 * @p emit: the one place where stuck-ats and overrides become
 * tables (DESIGN.md §9 "Folded op program"). The scalar Evaluator
 * collects the ops; the BatchEvaluator converts each to a lane op
 * as it comes. A cell step folds into one cell op. Beyond the
 * netlist's nets, unused inputs read the constant-zero net
 * numNets(), delayed gate k (in faults.delayed order) drives its
 * store net numNets() + 1 + k, and unused outputs write the sink
 * net after the stores. Delayed gates' latch tables go to
 * @p pending when given.
 */
template <class Emit>
void
foldTableOps(const Netlist &nl, const FaultSet &faults,
             const std::vector<uint32_t> *steps, Emit &&emit,
             std::vector<TableOp> *pending = nullptr)
{
    const TableFold fold(nl, faults);
    const NetId zero = fold.zeroNet, sink = fold.sink;
    const CellIndex *cells = nl.cellIndex();
    size_t count = steps ? steps->size() : nl.numGates();
    for (size_t k = 0; k < count; ++k) {
        uint32_t step = steps ? (*steps)[k] : static_cast<uint32_t>(k);
        if (step & kCellStep) {
            // Clean cell: its tables over its external nets (the
            // unused table bits are clear). Built in one expression:
            // the per-input loops cost 3x as much, and cells are the
            // bulk of a pruned program.
            const Cell &c = cells->cell(step & ~kCellStep);
            emit(TableOp{{c.numIn > 0 ? c.in[0] : zero,
                          c.numIn > 1 ? c.in[1] : zero,
                          c.numIn > 2 ? c.in[2] : zero,
                          c.numIn > 3 ? c.in[3] : zero},
                         {c.numOut > 0 ? c.out[0] : sink,
                          c.numOut > 1 ? c.out[1] : sink},
                         {c.table[0], c.table[1]},
                         0});
            continue;
        }
        if (const TableFold::GateFaults *gf = fold.faultsOf(step)) {
            emit(fold.faultyOp(step, *gf, pending));
            continue;
        }
        const Gate &g = nl.gate(step);
        int arity = g.arity();
        emit(TableOp{{arity > 0 ? g.in[0] : zero, arity > 1 ? g.in[1] : zero,
                      arity > 2 ? g.in[2] : zero, arity > 3 ? g.in[3] : zero},
                     {g.out, sink},
                     {gateTable(g.kind), 0},
                     0});
    }
}

/** Evaluates a Netlist, optionally with injected faults. */
class Evaluator
{
  public:
    /**
     * @param netlist the circuit; must outlive the evaluator
     * @param faults faults to apply (copied)
     * @param clean optional native model of the defect-free operator
     *        (packed inputs -> packed outputs). When given and the
     *        netlist is feedback-free, evaluateBits() simulates only
     *        the fault cone and splices all other output bits from
     *        this model instead of sweeping every gate.
     * @param cone optional computeFaultCone(netlist, faults), for a
     *        caller that builds several evaluators over one fault
     *        set (shared; computed here when null)
     */
    explicit Evaluator(const Netlist &netlist, FaultSet faults = {},
                       CleanFn clean = {},
                       std::shared_ptr<const FaultCone> cone = nullptr);

    /** Clear all state (nets and delayed-gate stores) to 0. */
    void reset();

    /** Set primary input @p index (bus order) to @p value. */
    void setInput(size_t index, bool value);

    /** Set the first @p count primary inputs from packed bits. */
    void setInputBits(uint64_t bits, size_t count);

    /** Set @p width inputs starting at @p offset from packed bits. */
    void setInputRange(size_t offset, size_t width, uint64_t bits);

    /** Propagate values until stable (or the sweep cap). */
    void evaluate();

    /** Read primary output @p index (bus order). */
    bool output(size_t index) const;

    /** Read the first @p count primary outputs as packed bits. */
    uint64_t outputBits(size_t count) const;

    /** Read @p width outputs starting at @p offset as packed bits. */
    uint64_t outputRange(size_t offset, size_t width) const;

    /** Convenience: set all inputs, evaluate, return all outputs. */
    uint64_t evaluateBits(uint64_t input_bits);

    /** Number of sweeps used by the last evaluate(). */
    int lastSweeps() const { return sweeps; }

    /** True when the last evaluate() hit the sweep cap. */
    bool lastOscillated() const { return oscillated; }

    /** The netlist being evaluated. */
    const Netlist &netlist() const { return nl; }

    /** The installed fault set. */
    const FaultSet &faults() const { return faultSet; }

    /** The clean model given at construction (empty when none). */
    const CleanFn &cleanModel() const { return cleanFn; }

    /** True when evaluateBits() runs the cone-pruned path. */
    bool conePruned() const { return cone && cone->valid; }

    /** The fault-cone analysis; null unless both a clean model and
     *  a fault was given, valid only when conePruned(). */
    const std::shared_ptr<const FaultCone> &faultCone() const
    {
        return cone;
    }

    /** Total scalar gate evaluations (gates x sweeps) so far. */
    uint64_t gateEvals() const { return gateEvalCount; }

    /**
     * Cone-pruned evaluateBits() calls so far in which a faulty
     * gate's output differed from its clean function, so the rest
     * of the pruned program was swept. Charges nothing: gateEvals()
     * counts every pruned call alike.
     */
    uint64_t activatedCalls() const { return activatedCount; }

    /**
     * The nets whose values outlive one evaluateBits() call on the
     * cone-pruned path: outputs of folded ops with a MEM entry and
     * the stored nets of delayed gates. Every other net the pruned
     * sweep reads is an input or is written earlier in the same
     * sweep, so (input word, these values) determines the outputs
     * and the next values of these nets (DESIGN.md §9). Folds the
     * pruned program on first use; empty unless conePruned().
     */
    const std::vector<NetId> &stateNets();

    /** Values of stateNets() packed LSB-first (at most 64). */
    uint64_t stateBits() const;

    /**
     * Account for a call that repeats the last one exactly: the
     * nets, lastSweeps() and lastOscillated() already hold what it
     * would leave, so only @p gate_evals is charged to gateEvals().
     */
    void repeatLast(uint64_t gate_evals) { gateEvalCount += gate_evals; }

    /**
     * Every value evaluate() reads: the nets, then the constant-zero
     * padding net, the delayed gates' stored outputs and the sink
     * net (always 0). A full
     * evaluate() is a function of this vector alone, so it can key
     * an exact memo of relaxations (DESIGN.md §9 "Relaxation memo").
     */
    const std::vector<uint8_t> &netValues() const { return netVal; }

    /**
     * Replay an evaluate() whose result is already known: starting
     * from the current netValues(), it left netValues() equal to
     * the @p netValues().size() bytes at @p next, swept @p sweeps
     * times, hit the sweep cap when @p oscillated, and charged
     * @p gate_evals to gateEvals().
     */
    void replayEvaluate(const uint8_t *next, int sweeps,
                        bool oscillated, uint64_t gate_evals);

  private:
    const Netlist &nl;
    FaultSet faultSet;
    CleanFn cleanFn;
    std::shared_ptr<const FaultCone> cone;

    /**
     * Per-net current value, followed by the constant-zero padding
     * net, one stored-output net per delayed gate and the sink net.
     */
    std::vector<uint8_t> netVal;
    /** Sweep program: every gate, in gate (= sweep) order; or,
     *  when cone-pruned, the cone's steps as the prefix (the faulty
     *  gates and their fan-in) then the rest, each in sweep order. */
    std::vector<TableOp> prog;
    /** Ops of prog in the prefix (cone-pruned only). */
    size_t prefixLen = 0;
    /** One per faulty gate: its real input nets (a delayed gate's
     *  g.in, not its store net), its output net and its clean table
     *  in value[0] (cone-pruned only). */
    std::vector<TableOp> checks;
    /** Every gate, for evaluate() (the full sweep) on a cone-pruned
     *  evaluator; empty otherwise. */
    std::vector<TableOp> fullProg;
    /** Delayed gates' un-forced tables, writing their stored-output
     *  nets (faultSet.delayed order). */
    std::vector<TableOp> pending;
    /** True when the netlist has feedback and needs relaxation. */
    bool needsRelaxation;
    /** True when the primary inputs are consecutive nets. */
    bool inputsContiguous = true;
    /** stateNets(), filled with the pruned program. */
    std::vector<NetId> stateNetList;

    int sweeps = 0;
    bool oscillated = false;
    uint64_t gateEvalCount = 0;
    uint64_t activatedCount = 0;

    /** The folded program for a full sweep (@p full) or for
     *  evaluateBits(); compiled on first use. */
    const std::vector<TableOp> &program(bool full);

    /** Gates one sweep of program(@p full) stands for: what each
     *  sweep charges to gateEvals(). */
    size_t programGates(bool full) const;

    /** Sweep the gate ops @p ops until stable (or the sweep cap),
     *  charging @p gates per sweep. */
    void runSweeps(const std::vector<TableOp> &ops, size_t gates);

    /** Reorder the freshly folded pruned program into prefix and
     *  rest, and fold the checks. */
    void splitOnActivation();

    /** One sweep of the pruned ops [@p first, @p last) (cell and
     *  gate ops). */
    void sweepPruned(const TableOp *first, const TableOp *last);

    /** True when a faulty gate's output differs from its clean
     *  function of its input nets (checks). */
    bool faultActivated() const;

    /** Latch pending values of delayed gates for the next round. */
    void latchDelayed();
};

} // namespace dtann

#endif // DTANN_CIRCUIT_EVALUATOR_HH
