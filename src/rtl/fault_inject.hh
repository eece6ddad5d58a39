/**
 * @file
 * Random fault injection into operator netlists.
 *
 * Mirrors the paper's procedure: defects are "randomly spread over
 * the operator bits, and within each 1-bit operation, over all
 * transistors" — i.e., first pick a bit cell (netlist group)
 * uniformly, then a gate within it weighted by transistor count,
 * then a random transistor-level defect. The gate-level comparison
 * model instead draws stuck-at faults on logic gate inputs/outputs.
 */

#ifndef DTANN_RTL_FAULT_INJECT_HH
#define DTANN_RTL_FAULT_INJECT_HH

#include <string>
#include <vector>

#include "circuit/faults.hh"
#include "circuit/netlist.hh"
#include "common/rng.hh"
#include "transistor/defect.hh"

namespace dtann {

/** Record of one injected fault, for experiment logs. */
struct InjectionRecord
{
    uint32_t gate;       ///< gate index within the netlist
    std::string what;    ///< human-readable fault description
};

/** Result of an injection: faults plus their provenance. */
struct Injection
{
    FaultSet faults;
    std::vector<InjectionRecord> records;

    /** Add @p other's faults to these (FaultSet::merge()) and its
     *  records after these: a later injection into the same unit. */
    void
    merge(const Injection &other)
    {
        faults.merge(other.faults);
        records.insert(records.end(), other.records.begin(),
                       other.records.end());
    }
};

/**
 * Inject @p count transistor-level defects. Multiple defects may
 * land in the same gate; their combined behaviour is reconstructed
 * jointly.
 */
Injection injectTransistorDefects(const Netlist &nl, int count, Rng &rng,
                                  const DefectMix &mix = DefectMix());

/**
 * Inject @p count gate-level stuck-at faults (random gate input or
 * output stuck at a random value) — the abstract model the paper
 * compares against.
 */
Injection injectGateLevelFaults(const Netlist &nl, int count, Rng &rng);

} // namespace dtann

#endif // DTANN_RTL_FAULT_INJECT_HH
