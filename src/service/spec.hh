/**
 * @file
 * Scenario specs: one JSON document describes one campaign.
 *
 * A spec names a campaign kind ("fig5", "fig10", "fig11",
 * "mitigation") and carries that kind's config fields inline —
 * parsed into the existing config structs through their fromJson()
 * constructors, which are symmetric with toJson(), so
 * parse(spec.toJson()) is the identity. The dtann_campaign driver
 * runs any spec through the campaign runners (service/runner.hh);
 * the benches build their specs from service/builtin_specs.hh.
 *
 * Parsing lists the spec's cell rows (cellRows()) once, so a spec
 * that names an unknown task, gives two cells one journal key or
 * lists more than kMaxCells cells is refused before anything runs;
 * the rows are also the admission plan, at O(rows) cost whatever
 * the repetition count.
 *
 * Fig 5 is the one kind whose paper experiment sweeps an axis the
 * per-run config cannot express (operator x defect count), so its
 * spec level is a Fig5Sweep that expand()s into per-variant
 * Fig5Configs with counter-derived per-variant seeds.
 */

#ifndef DTANN_SERVICE_SPEC_HH
#define DTANN_SERVICE_SPEC_HH

#include <string>
#include <vector>

#include "core/campaign.hh"
#include "mitigate/campaign.hh"

namespace dtann {

/**
 * The Fig 5 sweep axes: operators x defect counts, cross-producted
 * by expand() into independent Fig5Config variants.
 */
struct Fig5Sweep : CampaignRunConfig
{
    Fig5Sweep() { repetitions = 1000; }

    std::vector<Fig5Operator> operators = {Fig5Operator::Adder4};
    std::vector<int> defectCounts = {1};
    FaStyle style = FaStyle::Nand9;

    /** JSON object (spec echo). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError, also
     *  for a sweep past kMaxCells cells or a repeated operator, so
     *  expand() never builds a refused cross product. */
    static Fig5Sweep fromJson(const JsonValue &v);

    /**
     * Cross-product the axes into one Fig5Config per (operator,
     * defect count) cell, operator-major. Every variant derives its
     * own seed (seed + defects + 1000 * operator index) so results
     * are independent of sweep order; journal/threads/progress are
     * propagated verbatim.
     */
    std::vector<Fig5Config> expand() const;
};

/**
 * One parsed scenario spec. Exactly the config matching `kind` is
 * meaningful; the others stay default-constructed.
 */
struct ScenarioSpec
{
    std::string kind; ///< "fig5" | "fig10" | "fig11" | "mitigation"
    /** Export name (JSON file stem, journal display); default kind. */
    std::string name;

    Fig5Sweep fig5;
    Fig10Config fig10;
    Fig11Config fig11;
    MitigationConfig mitigation;

    /** The active kind's execution knobs (seed/threads/journal/...). */
    CampaignRunConfig &runConfig();
    const CampaignRunConfig &runConfig() const;

    /**
     * The active kind's network-campaign config, or nullptr for
     * fig5 (an operator sweep — no network, no hardware backend).
     */
    const CampaignConfig *campaignConfig() const;

    /**
     * Resolved hardware-target name of the active kind ("spatial",
     * "systolic", ...), or "" for fig5.
     */
    std::string backendLabel() const;

    /**
     * Canonical JSON echo: {"kind":..., "name":..., <config
     * fields>}. Execution-context members that are not data
     * (progress callback, journal pointer) are not part of it.
     */
    std::string toJson() const;

    /**
     * The echo a results journal binds to: toJson() with the worker
     * thread count normalized to 0. Campaign results are
     * bit-identical for any thread count, so a journal written at
     * one width must resume at another; every other field changes
     * the campaign's results and therefore the journal identity.
     */
    std::string journalEcho() const;

    /**
     * The active kind's cell rows, in the order the runner
     * schedules them: the admission plan (`--validate`, the
     * daemon's cells_total) and ScenarioResult.cells read this
     * list, and the engine derives each cell's journal key from
     * its row. Throws JsonError on an unknown task, a repeated key
     * (checkRows()) or more than kMaxCells cells
     * (checkCellBound()).
     */
    std::vector<CellRow> cellRows() const;

    /**
     * Symmetric counterpart of toJson(); throws JsonError, also
     * when cellRows() refuses the spec.
     */
    static ScenarioSpec fromJson(const JsonValue &v);

    /** Parse a spec document; throws JsonError with position info. */
    static ScenarioSpec parse(const std::string &text);
};

/** The valid spec kinds, for error messages and --list. */
std::vector<std::string> scenarioKinds();

} // namespace dtann

#endif // DTANN_SERVICE_SPEC_HH
