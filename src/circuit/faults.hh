/**
 * @file
 * Fault descriptions applied to a netlist at evaluation time.
 *
 * Two fault models coexist, mirroring the paper's comparison:
 *
 *  - transistor-level: a gate's behaviour is replaced wholesale by a
 *    GateFunction reconstructed from its defective transistor
 *    schematic (see src/transistor); it may include MEM entries and
 *    may additionally be delayed (output lags one evaluation).
 *  - gate-level: classic stuck-at-0/1 on a gate input or output
 *    (the abstract model the paper shows to be insufficient).
 */

#ifndef DTANN_CIRCUIT_FAULTS_HH
#define DTANN_CIRCUIT_FAULTS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "circuit/gate_function.hh"

namespace dtann {

/** Gate-level stuck-at fault. */
struct StuckAtFault
{
    uint32_t gate;  ///< gate index within the netlist
    int8_t input;   ///< input index, or -1 for the gate output
    bool value;     ///< the stuck value
};

/** The set of faults injected into one netlist. */
struct FaultSet
{
    /** Transistor-level reconstructed behaviours, by gate index. */
    std::map<uint32_t, GateFunction> overrides;
    /** Gates whose output is delayed by one evaluation. */
    std::set<uint32_t> delayed;
    /** Gate-level stuck-at faults. */
    std::vector<StuckAtFault> stuckAt;

    /** True when no fault is present. */
    bool
    empty() const
    {
        return overrides.empty() && delayed.empty() && stuckAt.empty();
    }

    /**
     * True when evaluation under this fault set is a pure function
     * of the current inputs: no delay faults (the output lags one
     * evaluation) and no MEM truth-table entries (a floating output
     * retains its previous value). Stuck-at faults and non-MEM
     * overrides are stateless. State-free fault sets on
     * feedback-free netlists are eligible for the 64-lane batch
     * evaluator; stateful ones must go through the scalar relaxation
     * Evaluator, whose net values persist across calls.
     */
    bool
    isStateless() const
    {
        if (!delayed.empty())
            return false;
        for (const auto &[gate, fn] : overrides)
            if (fn.hasMem())
                return false;
        return true;
    }

    /** Every gate carrying a fault, ascending, each once. */
    std::vector<uint32_t>
    gates() const
    {
        std::vector<uint32_t> g;
        for (const auto &[gi, fn] : overrides)
            g.push_back(gi);
        g.insert(g.end(), delayed.begin(), delayed.end());
        for (const StuckAtFault &f : stuckAt)
            g.push_back(f.gate);
        std::sort(g.begin(), g.end());
        g.erase(std::unique(g.begin(), g.end()), g.end());
        return g;
    }

    /** Merge another fault set into this one. */
    void
    merge(const FaultSet &other)
    {
        for (const auto &[g, f] : other.overrides)
            overrides[g] = f;
        delayed.insert(other.delayed.begin(), other.delayed.end());
        stuckAt.insert(stuckAt.end(), other.stuckAt.begin(),
                       other.stuckAt.end());
    }
};

} // namespace dtann

#endif // DTANN_CIRCUIT_FAULTS_HH
