/**
 * @file
 * Spec admission: expand a parsed scenario spec into its cell plan
 * without running anything.
 *
 * planSpec() groups the spec's cell keys (ScenarioSpec::cellKeys(),
 * the list the campaign runners schedule and journal) into
 * (task, variant, repetitions) rows. The daemon admits every
 * submitted job through it (rejecting bad specs before they reach
 * the queue, and sizing the job's progress fraction), and
 * `dtann_campaign --validate` prints it as a dry run. The plan *is*
 * the run's key list, so the daemon's advertised cell count is what
 * the runners execute (ScenarioResult.cells), which the service
 * tests assert.
 */

#ifndef DTANN_SERVICE_PLAN_HH
#define DTANN_SERVICE_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "service/spec.hh"

namespace dtann {

/** One (task, variant) group of identical-shape cells. */
struct PlanRow
{
    std::string task;    ///< task or operator name
    std::string variant; ///< swept-axis coordinates (CellKey form)
    size_t reps = 0;     ///< repetitions scheduled for the group
};

/** The expanded cell plan of one spec. */
struct SpecPlan
{
    size_t cells = 0; ///< total cells (== ScenarioResult.cells)
    std::vector<PlanRow> rows;

    /** {"cells":N,"rows":[{"task":...,"variant":...,"reps":N}...]} */
    std::string toJson() const;
};

/**
 * Expand @p spec into its plan. Performs the same validation the
 * runners would (unknown task names and colliding cell keys throw
 * JsonError), so a spec that plans cleanly is admissible.
 */
SpecPlan planSpec(const ScenarioSpec &spec);

} // namespace dtann

#endif // DTANN_SERVICE_PLAN_HH
