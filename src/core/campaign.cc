#include "core/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "ann/crossval.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"

namespace dtann {

namespace {

/**
 * Roots of the counter-based RNG streams (Rng::substream paths).
 * Every stream a campaign uses is substream(seed, {root, ...cell
 * coordinates...}), so streams never depend on scheduling order.
 */
enum StreamRoot : uint64_t {
    kStreamData = 1,  ///< {kStreamData, task}: dataset generation
    kStreamTrain = 2, ///< {kStreamTrain, task}: baseline training
    kStreamCell = 3,  ///< {kStreamCell, task, variant, rep}: one cell
};

} // namespace

// ---------------------------------------------------------------
// Config JSON (symmetric with the scenario-spec parser)

const char *
fig5OperatorName(Fig5Operator op)
{
    return op == Fig5Operator::Adder4 ? "adder4" : "multiplier4";
}

bool
fig5OperatorFromName(const std::string &name, Fig5Operator &out)
{
    if (name == "adder4") {
        out = Fig5Operator::Adder4;
        return true;
    }
    if (name == "multiplier4") {
        out = Fig5Operator::Multiplier4;
        return true;
    }
    return false;
}

std::string
Fig5Config::toJson() const
{
    std::string out = "{" + jsonRunFields();
    out += ",\"operator\":" + jsonString(fig5OperatorName(op));
    out += ",\"defects\":" + std::to_string(defects);
    out += ",\"fa_style\":" + jsonString(faStyleName(style));
    out += "}";
    return out;
}

Fig5Config
Fig5Config::fromJson(const JsonValue &v)
{
    Fig5Config c;
    c.readRunFields(v);
    std::string op_name =
        jsonGetString(v, "operator", fig5OperatorName(c.op));
    if (!fig5OperatorFromName(op_name, c.op))
        throw JsonError("unknown operator '" + op_name +
                        "' (expected adder4 or multiplier4)");
    c.defects = jsonGetInt(v, "defects", c.defects, 0, 1 << 20);
    std::string style =
        jsonGetString(v, "fa_style", faStyleName(c.style));
    if (!faStyleFromName(style, c.style))
        throw JsonError("unknown fa_style '" + style +
                        "' (expected nand9 or mirror)");
    return c;
}

std::string
Fig10Config::toJson() const
{
    std::string out = "{" + jsonCampaignFields();
    out += ",\"defect_counts\":[";
    for (size_t i = 0; i < defectCounts.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(defectCounts[i]);
    }
    out += "],\"retrain\":";
    out += retrain ? "true" : "false";
    out += "}";
    return out;
}

Fig10Config
Fig10Config::fromJson(const JsonValue &v)
{
    Fig10Config c;
    c.readCampaignFields(v);
    c.defectCounts = jsonGetIntArray(v, "defect_counts", c.defectCounts);
    c.retrain = jsonGetBool(v, "retrain", c.retrain);
    return c;
}

std::string
Fig11Config::toJson() const
{
    return "{" + jsonCampaignFields() + "}";
}

Fig11Config
Fig11Config::fromJson(const JsonValue &v)
{
    Fig11Config c;
    c.readCampaignFields(v);
    return c;
}

std::string
campaignEnvelope(const std::string &kind, const std::string &configJson,
                 uint64_t seed, const SimCounters &sim,
                 const std::string &resultsJson)
{
    std::string out = "{\"kind\":" + jsonString(kind);
    out += ",\"config\":" + configJson;
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"sim\":" + sim.toJson();
    out += ",\"results\":" + resultsJson;
    out += "}";
    return out;
}

// ---------------------------------------------------------------
// Fig 5

namespace {

/** Output histograms of one Fig 5 cell. */
struct Fig5Hists
{
    IntHistogram none, gate, trans;
    SimCounters sim;
};

} // namespace

std::vector<CellRow>
cellRows(const std::vector<Fig5Config> &variants)
{
    size_t cells = 0;
    for (const Fig5Config &c : variants)
        cells += static_cast<size_t>(c.repetitions);
    checkCellBound(cells);
    std::vector<CellRow> rows;
    for (size_t v = 0; v < variants.size(); ++v) {
        const Fig5Config &c = variants[v];
        std::string variant = 'd' + std::to_string(c.defects);
        rows.push_back({fig5OperatorName(c.op), variant,
                        static_cast<size_t>(c.repetitions), {v, 0, 0}});
    }
    checkRows("fig5", rows);
    return rows;
}

std::vector<Fig5Result>
runFig5(const std::vector<Fig5Config> &variants)
{
    CellTable<Fig5Hists> table;
    table.campaign = "fig5";
    table.rows = cellRows(variants);
    if (variants.empty())
        return {};

    std::vector<std::shared_ptr<const Netlist>> nets;
    for (const Fig5Config &c : variants) {
        auto build_netlist = [&] {
            return c.op == Fig5Operator::Adder4
                ? buildRippleAdder(4, c.style, true)
                : buildMultiplierUnsigned(4, c.style);
        };
        nets.push_back(c.contextCache != nullptr
                           ? c.contextCache->netlist(
                                 std::string("netlist/") +
                                     fig5OperatorName(c.op) + "/" +
                                     faStyleName(c.style),
                                 build_netlist)
                           : std::make_shared<const Netlist>(
                                 build_netlist()));
    }

    // One random injection per cell, evaluated on all 256 input
    // pairs in random order to avoid special behaviour from
    // defect-induced memory (paper Section III-A). The pairs reach
    // each faulty operator through applyLanes(): state-free fault
    // sets run 64 pairs per bit-parallel sweep, stateful ones fall
    // back to the scalar path in the same order, so histograms are
    // bit-identical either way.
    table.run = [&](const CellRow &row, uint64_t rep) {
        const Fig5Config &c = variants[row.coords.task];
        const std::shared_ptr<const Netlist> &nl = nets[row.coords.task];
        CleanFn clean_fn = c.op == Fig5Operator::Adder4
            ? cleanAdder(4, true)
            : cleanMultiplierUnsigned(4);
        Rng rng = Rng::substream(c.seed, {kStreamCell, rep});
        Injection trans_inj = injectTransistorDefects(*nl, c.defects, rng);
        Injection gate_inj = injectGateLevelFaults(*nl, c.defects, rng);
        OperatorSim trans_sim(nl, std::move(trans_inj), clean_fn);
        OperatorSim gate_sim(nl, std::move(gate_inj), clean_fn);

        std::vector<uint64_t> pairs(256);
        for (uint64_t p = 0; p < 256; ++p)
            pairs[p] = p;
        rng.shuffle(pairs);

        std::vector<uint64_t> trans_out(256), gate_out(256);
        trans_sim.applyLanes(pairs.data(), trans_out.data(), 256);
        gate_sim.applyLanes(pairs.data(), gate_out.data(), 256);

        Fig5Hists h;
        uint64_t out_mask = (1ull << nl->outputs().size()) - 1;
        for (size_t p = 0; p < 256; ++p) {
            uint64_t a = pairs[p] & 0xf, b = pairs[p] >> 4;
            h.none.add(static_cast<int64_t>(
                c.op == Fig5Operator::Adder4 ? a + b : a * b));
            h.trans.add(static_cast<int64_t>(trans_out[p] & out_mask));
            h.gate.add(static_cast<int64_t>(gate_out[p] & out_mask));
        }
        h.sim.merge(trans_sim.counters());
        h.sim.merge(gate_sim.counters());
        return h;
    };
    table.encode = [](const Fig5Hists &h) {
        return "{\"none\":" + h.none.toJson() +
            ",\"gate\":" + h.gate.toJson() +
            ",\"trans\":" + h.trans.toJson() +
            ",\"sim\":" + h.sim.toJson() + "}";
    };
    table.decode = [](const JsonValue &v) {
        return Fig5Hists{IntHistogram::fromJson(v.at("none")),
                         IntHistogram::fromJson(v.at("gate")),
                         IntHistogram::fromJson(v.at("trans")),
                         SimCounters::fromJson(v.at("sim"))};
    };
    table.label = [&](const CellRow &row, uint64_t rep,
                      const Fig5Hists &) {
        return CellReport{row.task, variants[row.coords.task].defects,
                          static_cast<int>(rep), 0.0};
    };

    // All variants run as one campaign (one progress count, one
    // batch) under the sweep's execution knobs, which every variant
    // carries verbatim.
    CampaignEngine engine(variants.front());
    auto cells = engine.runCells(variants.front(), table);

    std::vector<Fig5Result> results;
    for (const Fig5Config &c : variants)
        results.push_back(
            {c.op, c.defects, c.repetitions, c.style, c.seed, {}, {}, {}, {}});
    size_t i = 0;
    for (const CellRow &row : table.rows)
        for (size_t rep = 0; rep < row.reps; ++rep, ++i)
            if (cells[i]) {
                Fig5Result &r = results[row.coords.task];
                r.none.merge(cells[i]->none);
                r.gate.merge(cells[i]->gate);
                r.trans.merge(cells[i]->trans);
                r.sim.merge(cells[i]->sim);
            }
    for (const Fig5Result &r : results)
        logSimCounters("fig5", r.sim);
    return results;
}

Fig5Result
runFig5(const Fig5Config &config)
{
    return runFig5(std::vector<Fig5Config>{config}).front();
}

// ---------------------------------------------------------------
// Shared helpers

Hyper
hardwareHyper(const UciTaskSpec &spec, const AcceleratorConfig &a,
              double epoch_scale)
{
    Hyper h;
    // The physical array caps the hidden-layer size (the paper's
    // hardware uses 10 hidden neurons even when the software
    // optimum is larger).
    h.hidden = std::min(spec.hidden, a.hidden);
    h.epochs = std::max(
        1, static_cast<int>(spec.epochs * epoch_scale + 0.5));
    h.learningRate = spec.learningRate;
    h.momentum = 0.1;
    return h;
}

std::vector<UciTaskSpec>
selectTasks(const std::vector<std::string> &names)
{
    if (names.empty())
        return uciTasks();
    std::vector<UciTaskSpec> out;
    for (const auto &n : names)
        out.push_back(uciTask(n));
    return out;
}

std::vector<std::string>
taskNames(const CampaignConfig &config)
{
    std::vector<std::string> known;
    for (const UciTaskSpec &spec : uciTasks())
        known.push_back(spec.name);
    if (config.tasks.empty())
        return known;
    for (const std::string &name : config.tasks)
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::string names;
            for (const std::string &k : known)
                names += (names.empty() ? "" : ", ") + k;
            throw JsonError("unknown task '" + name +
                            "' (expected one of: " + names + ")");
        }
    return config.tasks;
}

Hyper
retrainHyper(const Hyper &hyper, double retrain_scale)
{
    Hyper h = hyper;
    h.epochs =
        std::max(1, static_cast<int>(hyper.epochs * retrain_scale + 0.5));
    return h;
}

bool
maybeWriteJson(const std::string &name, const std::string &json)
{
    std::string dir = jsonOutDir();
    if (dir.empty())
        return false;
    std::string path = dir + "/" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write JSON results to '%s'", path.c_str());
        return false;
    }
    out << json << "\n";
    return true;
}

namespace {

TaskContext
prepareTask(const CampaignConfig &config, const UciTaskSpec &spec,
            size_t task_index)
{
    TaskContext t;
    t.spec = spec;
    Rng data_rng =
        Rng::substream(config.seed, {kStreamData, task_index});
    t.ds = makeSyntheticTask(spec, data_rng, config.rows);
    t.hyper = hardwareHyper(spec, config.array, config.epochScale);
    t.logical = {spec.attributes, t.hyper.hidden, spec.classes};

    // Baseline: train the clean backend once; its weights
    // warm-start every retraining cell of this task.
    auto accel = makeBackend(config.backend, config.array, t.logical);
    Rng train_rng =
        Rng::substream(config.seed, {kStreamTrain, task_index});
    t.baseline = Trainer(t.hyper).train(*accel, t.ds, train_rng);
    return t;
}

} // namespace

std::string
taskContextKey(const CampaignConfig &config, const UciTaskSpec &spec,
               size_t index)
{
    // Everything prepareTask() reads, canonically encoded; two
    // configs with equal keys build bit-identical contexts.
    return "task/" + spec.name + "/" + std::to_string(index) +
        "/seed=" + std::to_string(config.seed) +
        ";rows=" + std::to_string(config.rows) +
        ";epoch_scale=" + jsonNumber(config.epochScale) +
        ";array=" + config.array.toJson() +
        ";backend=" + backendName(config.backend);
}

std::vector<std::shared_ptr<const TaskContext>>
prepareCampaignTasks(CampaignEngine &engine,
                     const CampaignConfig &config,
                     const std::vector<UciTaskSpec> &specs)
{
    std::vector<std::shared_ptr<const TaskContext>> ctx(specs.size());
    engine.parallelFor(specs.size(), [&](size_t t) {
        if (config.contextCache != nullptr) {
            ctx[t] = config.contextCache->task(
                taskContextKey(config, specs[t], t),
                [&] { return prepareTask(config, specs[t], t); });
        } else {
            ctx[t] = std::make_shared<const TaskContext>(
                prepareTask(config, specs[t], t));
        }
    });
    return ctx;
}

// ---------------------------------------------------------------
// Fig 10

namespace {

/** Outcome of one Fig 10 cell. */
struct Fig10Outcome
{
    double accuracy = 0.0;
    SimCounters sim;
};

} // namespace

std::vector<CellRow>
cellRows(const Fig10Config &config)
{
    std::vector<std::string> tasks = taskNames(config);
    auto reps = [&](int defects) {
        return defects == 0 ? 1 : static_cast<size_t>(config.repetitions);
    };
    size_t task_cells = 0;
    for (int defects : config.defectCounts)
        task_cells += reps(defects);
    checkCellBound(cellProduct(tasks.size(), task_cells));
    std::vector<CellRow> rows;
    for (size_t t = 0; t < tasks.size(); ++t)
        for (size_t d = 0; d < config.defectCounts.size(); ++d) {
            int defects = config.defectCounts[d];
            std::string variant =
                'v' + std::to_string(d) + ":d" + std::to_string(defects);
            rows.push_back({tasks[t], variant, reps(defects), {t, d, 0}});
        }
    checkRows("fig10", rows);
    return rows;
}

std::vector<Fig10Curve>
runFig10(const Fig10Config &config)
{
    CellTable<Fig10Outcome> table;
    table.campaign = "fig10";
    table.rows = cellRows(config);

    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    CampaignEngine engine(config);
    auto ctx = prepareCampaignTasks(engine, config, specs);

    table.run = [&](const CellRow &row, uint64_t rep) {
        const CellCoords &c = row.coords;
        const TaskContext &t = *ctx[c.task];
        int defects = config.defectCounts[c.variant];

        // The cell's whole randomness budget comes from one
        // counter-derived stream: injection first, then fold
        // shuffling and retraining.
        Rng rng = Rng::substream(config.seed,
                                 {kStreamCell, c.task, c.variant, rep});

        auto accel = makeBackend(config.backend, config.array,
                                 t.logical);
        if (defects > 0) {
            DefectInjector injector(*accel, SitePool::inputAndHidden(),
                                    config.weighting);
            injector.inject(defects, rng);
        }

        Fig10Outcome o;
        if (config.retrain) {
            Trainer retrainer(
                retrainHyper(t.hyper, config.retrainScale));
            o.accuracy = crossValidate(*accel, t.ds, config.folds,
                                       retrainer, rng, &t.baseline)
                             .meanAccuracy;
        } else {
            // Ablation: no retraining, test the baseline weights
            // through the faulty hardware.
            accel->setWeights(t.baseline);
            o.accuracy = evalAccuracy(*accel, t.ds);
        }
        o.sim = accel->simCounters();
        return o;
    };
    table.encode = [](const Fig10Outcome &o) {
        return "{\"accuracy\":" + jsonNumber(o.accuracy) +
            ",\"sim\":" + o.sim.toJson() + "}";
    };
    table.decode = [](const JsonValue &v) {
        return Fig10Outcome{v.at("accuracy").asNumber(),
                            SimCounters::fromJson(v.at("sim"))};
    };
    table.label = [&](const CellRow &row, uint64_t rep,
                      const Fig10Outcome &o) {
        return CellReport{row.task,
                          config.defectCounts[row.coords.variant],
                          static_cast<int>(rep), o.accuracy};
    };
    auto cells = engine.runCells(config, table);

    // Deterministic accumulation: computed cells are folded into
    // the curves in cell-index order, never in completion order.
    std::vector<Fig10Curve> curves(specs.size());
    std::vector<RunningStat> stats(specs.size() *
                                   config.defectCounts.size());
    size_t i = 0;
    for (const CellRow &row : table.rows) {
        const CellCoords &c = row.coords;
        for (size_t rep = 0; rep < row.reps; ++rep, ++i) {
            if (!cells[i])
                continue;
            stats[c.task * config.defectCounts.size() + c.variant].add(
                cells[i]->accuracy);
            curves[c.task].sim.merge(cells[i]->sim);
        }
    }
    SimCounters total;
    for (size_t t = 0; t < specs.size(); ++t) {
        curves[t].task = specs[t].name;
        for (size_t d = 0; d < config.defectCounts.size(); ++d) {
            const RunningStat &s =
                stats[t * config.defectCounts.size() + d];
            curves[t].points.push_back(
                {config.defectCounts[d], s.mean(), s.stddev()});
        }
        total.merge(curves[t].sim);
    }
    logSimCounters("fig10", total);
    return curves;
}

// ---------------------------------------------------------------
// Fig 11

namespace {

/** Outcome of one Fig 11 cell (its task is the curve's). */
struct Fig11Outcome
{
    double amplitude = 0.0;
    double accuracy = 0.0;
    std::string site;
    SimCounters sim;
};

} // namespace

std::vector<CellRow>
cellRows(const Fig11Config &config)
{
    std::vector<std::string> tasks = taskNames(config);
    checkCellBound(cellProduct(
        tasks.size(), static_cast<size_t>(config.repetitions)));
    std::vector<CellRow> rows;
    for (size_t t = 0; t < tasks.size(); ++t)
        rows.push_back({tasks[t], "v0",
                        static_cast<size_t>(config.repetitions),
                        {t, 0, 0}});
    checkRows("fig11", rows);
    return rows;
}

std::vector<Fig11Curve>
runFig11(const Fig11Config &config)
{
    CellTable<Fig11Outcome> table;
    table.campaign = "fig11";
    table.rows = cellRows(config);

    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    CampaignEngine engine(config);
    auto ctx = prepareCampaignTasks(engine, config, specs);

    table.run = [&](const CellRow &row, uint64_t rep) {
        size_t task = row.coords.task;
        const TaskContext &t = *ctx[task];
        Rng rng =
            Rng::substream(config.seed, {kStreamCell, task, 0, rep});

        auto accel = makeBackend(config.backend, config.array,
                                 t.logical);
        DefectInjector injector(*accel, SitePool::outputCritical(),
                                config.weighting);
        auto records = injector.inject(1, rng);
        UnitSite site = accel->faultySites().front();

        // Retrain with the faulty output stage, then measure
        // accuracy and the error amplitude at the faulty unit
        // during the test phase only.
        Trainer retrainer(retrainHyper(t.hyper, config.retrainScale));
        auto folds = kFoldIndices(t.ds.size(), config.folds);
        RunningStat acc_stat;
        RunningStat amp_stat;
        for (size_t f = 0; f < folds.size(); ++f) {
            Dataset train_set = complementSubset(t.ds, folds, f);
            Dataset test_set = subset(t.ds, folds[f]);
            retrainer.train(*accel, train_set, rng, &t.baseline);
            accel->clearProbes();
            acc_stat.add(evalAccuracy(*accel, test_set));
            const DeviationProbe &p = accel->probe(site);
            if (p.amplitude.count() > 0)
                amp_stat.add(p.amplitude.mean());
        }
        return Fig11Outcome{
            amp_stat.mean(), acc_stat.mean(),
            records.empty() ? site.describe() : records.front().what,
            accel->simCounters()};
    };
    table.encode = [](const Fig11Outcome &o) {
        return "{\"amplitude\":" + jsonNumber(o.amplitude) +
            ",\"accuracy\":" + jsonNumber(o.accuracy) +
            ",\"site\":" + jsonString(o.site) +
            ",\"sim\":" + o.sim.toJson() + "}";
    };
    table.decode = [](const JsonValue &v) {
        return Fig11Outcome{v.at("amplitude").asNumber(),
                            v.at("accuracy").asNumber(),
                            v.at("site").asString(),
                            SimCounters::fromJson(v.at("sim"))};
    };
    table.label = [](const CellRow &row, uint64_t rep,
                     const Fig11Outcome &o) {
        return CellReport{row.task, 1, static_cast<int>(rep),
                          o.accuracy};
    };
    auto cells = engine.runCells(config, table);

    // Bin computed cells in cell-index order for deterministic
    // curves.
    std::vector<Fig11Curve> curves(specs.size());
    std::vector<LogBins> bins(specs.size(), LogBins(-3, 3, 1));
    size_t i = 0;
    for (const CellRow &row : table.rows) {
        size_t task = row.coords.task;
        for (size_t rep = 0; rep < row.reps; ++rep, ++i) {
            if (!cells[i])
                continue;
            Fig11Outcome &o = *cells[i];
            bins[task].add(o.amplitude, o.accuracy);
            curves[task].samples.push_back({specs[task].name, o.amplitude,
                                            o.accuracy, std::move(o.site)});
            curves[task].sim.merge(o.sim);
        }
    }
    SimCounters total;
    for (size_t task = 0; task < specs.size(); ++task) {
        curves[task].task = specs[task].name;
        for (size_t b = 0; b < bins[task].numBins(); ++b)
            if (bins[task].binStat(b).count() > 0)
                curves[task].binAccuracy.push_back(
                    {bins[task].binCenter(b), bins[task].binStat(b).mean()});
        total.merge(curves[task].sim);
    }
    logSimCounters("fig11", total);
    return curves;
}

// ---------------------------------------------------------------
// JSON export

std::string
Fig5Result::toJson() const
{
    std::string out = "{\"figure\":\"fig5\",\"operator\":";
    out += jsonString(fig5OperatorName(op));
    out += ",\"defects\":" + std::to_string(defects);
    out += ",\"repetitions\":" + std::to_string(repetitions);
    out += ",\"fa_style\":" + jsonString(faStyleName(style));
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"histograms\":{\"none\":" + none.toJson();
    out += ",\"gate\":" + gate.toJson();
    out += ",\"trans\":" + trans.toJson();
    out += "},\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

std::string
Fig10Curve::toJson() const
{
    std::string out =
        "{\"figure\":\"fig10\",\"task\":\"" + jsonEscape(task) +
        "\",\"points\":[";
    for (size_t i = 0; i < points.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"defects\":" + std::to_string(points[i].defects);
        out += ",\"accuracy\":" + jsonNumber(points[i].accuracy);
        out += ",\"stddev\":" + jsonNumber(points[i].stddev) + "}";
    }
    out += "],\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

std::string
Fig11Curve::toJson() const
{
    std::string out =
        "{\"figure\":\"fig11\",\"task\":\"" + jsonEscape(task) +
        "\",\"bins\":[";
    for (size_t i = 0; i < binAccuracy.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"amplitude\":" + jsonNumber(binAccuracy[i].first);
        out += ",\"accuracy\":" + jsonNumber(binAccuracy[i].second) +
            "}";
    }
    out += "],\"samples\":[";
    for (size_t i = 0; i < samples.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"amplitude\":" + jsonNumber(samples[i].amplitude);
        out += ",\"accuracy\":" + jsonNumber(samples[i].accuracy);
        out += ",\"site\":\"" + jsonEscape(samples[i].site) + "\"}";
    }
    out += "],\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

} // namespace dtann
