/**
 * @file
 * Scenario runner: one entry point that runs any parsed spec
 * through the matching campaign and wraps the outcome in the
 * shared campaignEnvelope() export.
 *
 * This is the layer the dtann_campaign driver and the figure
 * benches share: benches build a built-in spec, the driver parses
 * one from disk, and both call runScenario(). Environment knobs are
 * applied here, in exactly one place (applyEnvOverrides), instead
 * of ad hoc throughout the benches.
 */

#ifndef DTANN_SERVICE_RUNNER_HH
#define DTANN_SERVICE_RUNNER_HH

#include <string>
#include <vector>

#include "service/spec.hh"

namespace dtann {

/**
 * Outcome of one scenario. `json` is the complete
 * campaignEnvelope() document; the typed vector matching the
 * spec kind is populated for callers (benches) that print
 * human-readable analyses, the other three stay empty.
 */
struct ScenarioResult
{
    std::string kind;
    std::string name; ///< export name (JSON file stem)
    std::string json; ///< campaignEnvelope() document
    SimCounters sim;  ///< total gate-simulation work
    size_t cells = 0; ///< campaign cells (sum of cellRows() reps)

    std::vector<Fig5Result> fig5;
    std::vector<Fig10Curve> fig10;
    std::vector<Fig11Curve> fig11;
    std::vector<MitigationCurve> mitigation;
};

/**
 * Run @p spec through its campaign. Execution context the caller
 * set on spec.runConfig() — journal, progress callback, thread
 * override — is honoured; results are bit-identical for any thread
 * count and for any journaled prefix.
 */
ScenarioResult runScenario(const ScenarioSpec &spec);

/**
 * Apply the documented environment overrides to @p spec — the one
 * place DTANN_* knobs meet spec fields:
 *
 *  - DTANN_SEED     overrides the spec's seed (when set)
 *  - DTANN_THREADS  overrides the spec's worker thread count
 *
 * Scale knobs (DTANN_FULL) select *which* built-in spec a bench
 * builds and never mutate a parsed spec: a spec file states its
 * scale explicitly.
 */
void applyEnvOverrides(ScenarioSpec &spec);

} // namespace dtann

#endif // DTANN_SERVICE_RUNNER_HH
