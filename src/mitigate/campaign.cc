#include "mitigate/campaign.hh"

#include <algorithm>
#include <cstdint>

#include "common/json.hh"
#include "core/cost_model.hh"

namespace dtann {

namespace {

/**
 * Stream roots of the mitigation campaign (Rng::substream paths).
 * Data/train roots deliberately match the core campaigns so the
 * same seed yields the same datasets and baselines as Fig 10. The
 * injection root omits the strategy coordinate: all strategies of a
 * (task, defect count, repetition) cell see identical defects.
 */
enum StreamRoot : uint64_t {
    kStreamData = 1,   ///< {kStreamData, task}: dataset generation
    kStreamTrain = 2,  ///< {kStreamTrain, task}: baseline training
    kStreamCell = 3,   ///< {kStreamCell, task, variant, strategy id, rep}
    kStreamInject = 4, ///< {kStreamInject, task, variant, rep}
};

/**
 * Decode one journaled mitigation cell.
 *
 * Journal-compat contract: a payload written by a different build
 * may lack fields this build knows (or carry extras it doesn't).
 * Every result field is *required for replay* — a missing one
 * throws JsonError here, which the engine turns into a warn +
 * recompute of just that cell, because substituting a default
 * would silently change the merged export (the byte-identity
 * contract). Extra unknown fields are ignored, and *within* the
 * sim object genuinely derivable counters default (see
 * SimCounters::fromJson, e.g. pre-wide-lane lane slots). The
 * outcome is built locally and the engine commits it whole, so a
 * mid-decode throw can never leave a half-rehydrated cell behind.
 */
MitigationOutcome
decodeJournaledCell(const JsonValue &v)
{
    MitigationOutcome o;
    o.accuracy = v.at("accuracy").asNumber();
    o.coverage = v.at("coverage").asNumber();
    o.diagnosed =
        static_cast<int>(v.at("diagnosed").asInt(0, INT32_MAX));
    o.mitigatedUnits =
        static_cast<int>(v.at("mitigated_units").asInt(0, INT32_MAX));
    o.sim = SimCounters::fromJson(v.at("sim"));
    return o;
}

/**
 * Per-bit transistor estimates for the small mitigation add-ons, in
 * the same NAND-cell style the unit netlists use: a 2:1 mux is
 * three NAND2s (12 T), a magnitude-comparator bit-slice about
 * 10 T. Coarse, but measured against the exact netlist counts of
 * the units they attach to, so the overhead *ratios* are honest.
 */
constexpr size_t kMuxBitT = 12;
constexpr size_t kCmpBitT = 10;

} // namespace

MitigationCost
mitigationCost(Strategy s, const AcceleratorConfig &array,
               MlpTopology logical, const BistConfig &bist,
               BackendKind backend)
{
    CostModel model(array);
    MitigationCost c;

    size_t syn, stages, acts;
    int spare_rows;
    if (backend == BackendKind::Systolic) {
        // The weight-stationary grid instantiates one latch +
        // multiplier per PE, one adder stage per inter-PE hop, and
        // one activation per column; both passes share them. No
        // spare output rows exist to provision.
        size_t rows = static_cast<size_t>(
                          std::max(array.inputs, array.hidden)) + 1;
        size_t cols = static_cast<size_t>(
            std::max(array.hidden, array.outputs));
        syn = rows * cols;
        stages = (rows - 1) * cols;
        acts = cols;
        spare_rows = 0;
    } else {
        syn = static_cast<size_t>(array.hidden) *
                static_cast<size_t>(array.inputs + 1) +
            static_cast<size_t>(array.outputs) *
                static_cast<size_t>(array.hidden + 1);
        stages = static_cast<size_t>(array.hidden) *
                static_cast<size_t>(array.inputs) +
            static_cast<size_t>(array.outputs) *
                static_cast<size_t>(array.hidden);
        acts = static_cast<size_t>(array.hidden) +
            static_cast<size_t>(array.outputs);
        spare_rows = std::max(0, array.outputs - logical.outputs);
    }

    // Scan-access isolation muxes on every unit's inputs — the
    // hardware that lets BIST drive a unit apart from the datapath.
    // Static in mission mode: area only.
    size_t scan = syn * (16 + 16) * kMuxBitT // mult operands + latch D
        + stages * 48 * kMuxBitT             // two 24-bit adder operands
        + acts * 16 * kMuxBitT;              // activation input

    switch (s) {
      case Strategy::NoOp:
      case Strategy::RetrainOnly:
        // Blind strategies on the stock array: retraining runs on
        // the companion core, outside the array budget (as in the
        // paper's own accounting).
        break;
      case Strategy::BypassFaulty:
        // One output-gating mux per unit: product (16 b), adder
        // stage (24 b), activation (16 b); the product mux covers
        // the latch+multiplier pair.
        c.missionTransistors = syn * 16 * kMuxBitT +
            stages * 24 * kMuxBitT + acts * 16 * kMuxBitT;
        c.testTransistors = scan;
        c.bistVectorsPerUnit = bist.vectorsPerUnit;
        break;
      case Strategy::RemapToSpares:
        // Provisioned spare rows plus a row-steering mux per
        // logical output (one 2:1 stage per spare candidate).
        c.spareRows = spare_rows;
        c.missionTransistors =
            static_cast<size_t>(spare_rows) *
                model.outputRowTransistors() +
            static_cast<size_t>(logical.outputs) *
                static_cast<size_t>(spare_rows) * 16 * kMuxBitT;
        c.testTransistors = scan;
        c.bistVectorsPerUnit = bist.vectorsPerUnit;
        break;
      case Strategy::ClampActivations:
        // Two comparators + one saturating mux, 16 bits, after
        // every physical activation unit. Blind: no scan, no BIST.
        c.missionTransistors =
            acts * 16 * (2 * kCmpBitT + kMuxBitT);
        break;
      case Strategy::ReplicateCritical:
        // Provisioned spare rows plus a median-of-3 voter (three
        // comparators, two muxes, 16 bits) per logical output.
        c.spareRows = spare_rows;
        c.missionTransistors =
            static_cast<size_t>(spare_rows) *
                model.outputRowTransistors() +
            static_cast<size_t>(logical.outputs) * 16 *
                (3 * kCmpBitT + 2 * kMuxBitT);
        c.testTransistors = scan;
        c.bistVectorsPerUnit = bist.vectorsPerUnit;
        break;
    }

    BlockCost base = model.accelerator();
    c.areaOverhead =
        model.areaOf(c.missionTransistors + c.testTransistors) /
        base.areaMm2;
    c.energyOverhead =
        model.energyPerRowOf(c.missionTransistors) /
        base.energyPerRowNj;
    return c;
}

std::string
MitigationCost::toJson() const
{
    std::string out =
        "{\"spare_rows\":" + std::to_string(spareRows);
    out += ",\"bist_vectors_per_unit\":" +
        std::to_string(bistVectorsPerUnit);
    out += ",\"mission_transistors\":" +
        std::to_string(missionTransistors);
    out += ",\"test_transistors\":" + std::to_string(testTransistors);
    out += ",\"area_overhead\":" + jsonNumber(areaOverhead);
    out += ",\"energy_overhead\":" + jsonNumber(energyOverhead);
    out += "}";
    return out;
}

std::string
MitigationConfig::toJson() const
{
    std::string out = "{" + jsonCampaignFields();
    out += ",\"defect_counts\":[";
    for (size_t i = 0; i < defectCounts.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(defectCounts[i]);
    }
    out += "],\"strategies\":[";
    for (size_t i = 0; i < strategies.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(strategyName(strategies[i]));
    }
    out += "],\"bist_vectors_per_unit\":" +
        std::to_string(bist.vectorsPerUnit);
    out += ",\"inject_pool\":" + injectPool.toJson();
    out += "}";
    return out;
}

MitigationConfig
MitigationConfig::fromJson(const JsonValue &v)
{
    MitigationConfig c;
    c.readCampaignFields(v);
    c.defectCounts = jsonGetIntArray(v, "defect_counts", c.defectCounts);
    if (const JsonValue *s = v.find("strategies")) {
        c.strategies.clear();
        for (const JsonValue &e : s->items()) {
            Strategy strat;
            if (!strategyFromName(e.asString(), strat))
                throw JsonError("unknown strategy '" + e.asString() +
                                "' (expected one of: " +
                                strategyNameList() + ")");
            // An explicitly requested strategy the backend cannot
            // drive is a spec error, not something to drop quietly.
            if (!strategySupported(strat, c.backend))
                throw JsonError(
                    "strategy '" + std::string(strategyName(strat)) +
                    "' is not supported on backend '" +
                    backendName(c.backend) + "'");
            c.strategies.push_back(strat);
        }
    } else {
        // The default lineup races everything the backend can
        // drive; the spare-row strategies silently drop off the
        // systolic grid (there are no spare rows to steer).
        std::erase_if(c.strategies, [&](Strategy strat) {
            return !strategySupported(strat, c.backend);
        });
    }
    c.bist.vectorsPerUnit = jsonGetInt(v, "bist_vectors_per_unit",
                                       c.bist.vectorsPerUnit, 1,
                                       1 << 20);
    if (const JsonValue *p = v.find("inject_pool"))
        c.injectPool = SitePool::fromJson(*p);
    return c;
}

std::vector<CellRow>
cellRows(const MitigationConfig &config)
{
    std::vector<std::string> tasks = taskNames(config);
    auto reps = [&](int defects) {
        return defects == 0 ? 1 : static_cast<size_t>(config.repetitions);
    };
    size_t strategy_cells = 0;
    for (int defects : config.defectCounts)
        strategy_cells += reps(defects);
    checkCellBound(cellProduct(
        cellProduct(tasks.size(), config.strategies.size()),
        strategy_cells));
    std::vector<CellRow> rows;
    for (size_t t = 0; t < tasks.size(); ++t)
        for (size_t d = 0; d < config.defectCounts.size(); ++d) {
            int defects = config.defectCounts[d];
            for (size_t s = 0; s < config.strategies.size(); ++s) {
                std::string variant = 'v' + std::to_string(d) + ":d" +
                    std::to_string(defects) + ":" +
                    strategyName(config.strategies[s]);
                rows.push_back({tasks[t], variant, reps(defects), {t, d, s}});
            }
        }
    checkRows("mitigation", rows);
    return rows;
}

std::vector<MitigationCurve>
runMitigationCampaign(const MitigationConfig &config)
{
    CellTable<MitigationOutcome> table;
    table.campaign = "mitigation";
    table.rows = cellRows(config);

    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    CampaignEngine engine(config);

    // The shared preparation path (core/campaign): identical
    // (seed, scale) configs yield identical contexts to Fig 10/11,
    // so a daemon's context cache is shared across campaign kinds.
    auto ctx = prepareCampaignTasks(engine, config, specs);

    table.run = [&](const CellRow &row, uint64_t rep) {
        const CellCoords &c = row.coords;
        const TaskContext &t = *ctx[c.task];
        int defects = config.defectCounts[c.variant];
        Strategy strategy = config.strategies[c.strategy];

        MitigationSetup setup{
            config.array,
            t.logical,
            t.ds,
            retrainHyper(t.hyper, config.retrainScale),
            t.baseline,
            config.folds,
            config.bist,
            config.backend,
        };

        // Identical physical defects for every strategy of this
        // (task, variant, rep): the inject stream has no strategy
        // coordinate.
        auto inject = [&](HardwareBackend &accel) {
            if (defects <= 0)
                return;
            Rng inject_rng = Rng::substream(
                config.seed, {kStreamInject, c.task, c.variant, rep});
            DefectInjector injector(accel, config.injectPool,
                                    config.weighting);
            injector.inject(defects, inject_rng);
        };

        // Keyed by the stable strategy id, not the lineup index:
        // a strategy's stream (and thus its whole curve) must not
        // move when the lineup around it is reordered or trimmed.
        Rng rng = Rng::substream(
            config.seed, {kStreamCell, c.task, c.variant,
                          static_cast<uint64_t>(strategy), rep});
        return makeMitigator(strategy)->run(setup, inject, rng);
    };
    table.encode = [](const MitigationOutcome &o) {
        return "{\"accuracy\":" + jsonNumber(o.accuracy) +
            ",\"coverage\":" + jsonNumber(o.coverage) +
            ",\"diagnosed\":" + std::to_string(o.diagnosed) +
            ",\"mitigated_units\":" + std::to_string(o.mitigatedUnits) +
            ",\"sim\":" + o.sim.toJson() + "}";
    };
    table.decode = decodeJournaledCell;
    table.label = [&](const CellRow &row, uint64_t rep,
                      const MitigationOutcome &o) {
        const CellCoords &c = row.coords;
        return CellReport{row.task + ":" +
                              strategyName(config.strategies[c.strategy]),
                          config.defectCounts[c.variant],
                          static_cast<int>(rep), o.accuracy};
    };
    auto cells = engine.runCells(config, table);

    // Deterministic accumulation in cell-index order. Only computed
    // cells contribute: a shard split can starve a (strategy, defect)
    // pair entirely, and folding the default-constructed placeholders
    // in would poison its means (accuracy 0, coverage 1) while
    // looking like data. A starved point instead reports samples == 0
    // with all-zero means (the RunningStat empty contract — no NaN).
    size_t n_var = config.defectCounts.size();
    size_t n_strat = config.strategies.size();
    struct PointStat
    {
        RunningStat accuracy, coverage, mitigated;
    };
    std::vector<PointStat> stats(specs.size() * n_strat * n_var);
    std::vector<SimCounters> curveSim(specs.size() * n_strat);
    SimCounters totalSim;
    size_t i = 0;
    for (const CellRow &row : table.rows) {
        const CellCoords &c = row.coords;
        for (size_t rep = 0; rep < row.reps; ++rep, ++i) {
            if (!cells[i])
                continue;
            const MitigationOutcome &o = *cells[i];
            PointStat &p = stats[(c.task * n_strat + c.strategy) * n_var +
                                 c.variant];
            p.accuracy.add(o.accuracy);
            p.coverage.add(o.coverage);
            p.mitigated.add(o.mitigatedUnits);
            curveSim[c.task * n_strat + c.strategy].merge(o.sim);
            totalSim.merge(o.sim);
        }
    }
    logSimCounters("mitigation", totalSim);

    std::vector<MitigationCurve> curves;
    curves.reserve(specs.size() * n_strat);
    for (size_t t = 0; t < specs.size(); ++t)
        for (size_t s = 0; s < n_strat; ++s) {
            MitigationCurve curve;
            curve.task = specs[t].name;
            curve.strategy = config.strategies[s];
            curve.sim = curveSim[t * n_strat + s];
            curve.cost = mitigationCost(config.strategies[s],
                                        config.array, ctx[t]->logical,
                                        config.bist, config.backend);
            // The Pareto y coordinate: mean accuracy over the
            // defective points, weighting each defect count equally
            // (matching how Fig 10 curves are read).
            RunningStat pareto;
            for (size_t d = 0; d < n_var; ++d) {
                const PointStat &p = stats[(t * n_strat + s) * n_var + d];
                curve.points.push_back({config.defectCounts[d],
                                        p.accuracy.mean(),
                                        p.accuracy.stddev(),
                                        p.coverage.mean(),
                                        p.mitigated.mean(),
                                        static_cast<long>(
                                            p.accuracy.count())});
                if (config.defectCounts[d] > 0 &&
                    p.accuracy.count() > 0)
                    pareto.add(p.accuracy.mean());
            }
            curve.paretoAccuracy = pareto.mean();
            curves.push_back(std::move(curve));
        }
    return curves;
}

std::string
MitigationCurve::toJson() const
{
    std::string out = "{\"figure\":\"mitigation\",\"task\":" +
        jsonString(task);
    out += ",\"strategy\":" + jsonString(strategyName(strategy));
    out += ",\"points\":[";
    for (size_t i = 0; i < points.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"defects\":" + std::to_string(points[i].defects);
        out += ",\"accuracy\":" + jsonNumber(points[i].accuracy);
        out += ",\"stddev\":" + jsonNumber(points[i].stddev);
        out += ",\"coverage\":" + jsonNumber(points[i].coverage);
        out += ",\"mitigated\":" + jsonNumber(points[i].mitigated);
        out += ",\"count\":" + std::to_string(points[i].samples) + "}";
    }
    out += "],\"cost\":" + cost.toJson();
    out += ",\"pareto\":{\"accuracy\":" + jsonNumber(paretoAccuracy);
    out += ",\"area_overhead\":" + jsonNumber(cost.areaOverhead);
    out += ",\"energy_overhead\":" + jsonNumber(cost.energyOverhead);
    out += "}";
    out += ",\"sim\":" + sim.toJson() + "}";
    return out;
}

} // namespace dtann
