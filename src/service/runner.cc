#include "service/runner.hh"

#include <cstdlib>

#include "common/env.hh"
#include "common/json.hh"

namespace dtann {

namespace {

/**
 * Config echo for the result envelope. The worker thread count is
 * an execution knob, not campaign data — results are bit-identical
 * at any width — so it is normalized to 0 here, keeping the whole
 * export reproducible across widths (and across journal resumes
 * that change the width).
 */
template <typename Config>
std::string
echoJson(const Config &config)
{
    Config echo = config;
    echo.threads = 0;
    return echo.toJson();
}

/** Merge @p results' SimCounters into @p r; return their export. */
template <typename Result>
std::string
exportResults(ScenarioResult &r, const std::vector<Result> &results)
{
    for (const Result &res : results)
        r.sim.merge(res.sim);
    return toJson(results);
}

} // namespace

ScenarioResult
runScenario(const ScenarioSpec &spec)
{
    ScenarioResult r;
    r.kind = spec.kind;
    r.name = spec.name.empty() ? spec.kind : spec.name;
    r.cells = cellCount(spec.cellRows());

    std::string config, results;
    if (spec.kind == "fig5") {
        // The sweep expander turns the spec axes into per-variant
        // configs, which run as one campaign.
        r.fig5 = runFig5(spec.fig5.expand());
        results = exportResults(r, r.fig5);
        config = echoJson(spec.fig5);
    } else if (spec.kind == "fig10") {
        r.fig10 = runFig10(spec.fig10);
        results = exportResults(r, r.fig10);
        config = echoJson(spec.fig10);
    } else if (spec.kind == "fig11") {
        r.fig11 = runFig11(spec.fig11);
        results = exportResults(r, r.fig11);
        config = echoJson(spec.fig11);
    } else {
        r.mitigation = runMitigationCampaign(spec.mitigation);
        results = exportResults(r, r.mitigation);
        config = echoJson(spec.mitigation);
    }
    r.json = campaignEnvelope(r.kind, config, spec.runConfig().seed,
                              r.sim, results);
    return r;
}

void
applyEnvOverrides(ScenarioSpec &spec)
{
    CampaignRunConfig &run = spec.runConfig();
    // experimentSeed() falls back to the repo default when DTANN_SEED
    // is unset — only an explicitly set knob may beat the spec.
    if (std::getenv("DTANN_SEED") != nullptr)
        run.seed = experimentSeed();
    if (threadCount() != 0)
        run.threads = threadCount();
}

} // namespace dtann
