/**
 * @file
 * bench_compare: diff two google-benchmark JSON envelopes, or two
 * campaign result envelopes (the {"kind", "config", "results"}
 * objects dtann_campaign and the benches export).
 *
 *   bench_compare BASELINE.json CURRENT.json [--tolerance F]
 *
 * Benchmark mode matches benchmarks by name, prints a speedup table
 * (baseline time over current time, so > 1 is faster than the
 * baseline), and fails when any benchmark regressed beyond the
 * tolerance: current time above baseline * (1 + F), default
 * F = 0.5. A repeated benchmark is represented by its "median"
 * aggregate row when the file has one (a baseline recorded with
 * --benchmark_repetitions), else by its plain iteration run; other
 * aggregates are skipped. Only names present in both files count —
 * a new benchmark has no baseline to regress against.
 *
 * Campaign mode is selected automatically when both inputs are
 * campaign envelopes. It matches result curves by figure, task and
 * strategy, and reports per-point accuracy deltas plus the
 * mitigation Pareto movement (pareto accuracy, area/energy
 * overhead). Campaign numbers are deterministic measurements, not
 * timings, so this mode is informational: it always exits 0 (added
 * or removed curves are listed, mirroring the no-baseline rule
 * above) and never trips the perf-smoke gate.
 *
 * Comparing across build types is meaningless for timings (a debug
 * run is not a regression of a Release baseline), so when two
 * benchmark envelopes record different "dtann_build_type" contexts
 * the tool explains that and exits 77 — ctest's SKIP_RETURN_CODE,
 * turning the perf-smoke comparison into a skip instead of a false
 * alarm.
 *
 * Exit codes: 0 within tolerance (always, in campaign mode),
 * 1 regression, 2 usage or unreadable/mismatched input, 77
 * build-type mismatch (skip).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

using namespace dtann;

namespace {

int
usage(FILE *to)
{
    std::fprintf(
        to,
        "usage: bench_compare BASELINE.json CURRENT.json "
        "[--tolerance F]\n"
        "\n"
        "Compare two google-benchmark JSON envelopes; fail (exit 1)\n"
        "when a benchmark in CURRENT is slower than BASELINE by\n"
        "more than the tolerance fraction (default 0.5). Exits 77\n"
        "when the envelopes record different dtann build types.\n"
        "\n"
        "When both files are campaign envelopes (dtann_campaign /\n"
        "bench JSON exports) the tool diffs result curves instead:\n"
        "per-point accuracy deltas and Pareto movement, always\n"
        "exit 0 (informational).\n");
    return to == stderr ? 2 : 0;
}

struct Run
{
    double realTime = 0.0;
    std::string timeUnit;
};

struct Envelope
{
    std::string buildType; ///< context.dtann_build_type ("" if absent)
    std::map<std::string, Run> runs;
};

JsonValue
loadJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream body;
    body << in.rdbuf();
    return jsonParse(body.str());
}

/** A campaign envelope carries "kind" + "results" instead of the
 *  google-benchmark "benchmarks" array. */
bool
isCampaignEnvelope(const JsonValue &v)
{
    return v.find("benchmarks") == nullptr &&
        v.find("kind") != nullptr && v.find("results") != nullptr;
}

Envelope
loadEnvelope(const std::string &path, const JsonValue &v)
{
    Envelope env;
    if (const JsonValue *ctx = v.find("context"))
        if (const JsonValue *bt = ctx->find("dtann_build_type"))
            env.buildType = bt->asString();
    const JsonValue *benches = v.find("benchmarks");
    if (!benches)
        throw std::runtime_error("'" + path +
                                 "' has no \"benchmarks\" array");
    std::map<std::string, Run> medians;
    for (const JsonValue &b : benches->items()) {
        Run run;
        run.realTime = b.at("real_time").asNumber();
        if (const JsonValue *u = b.find("time_unit"))
            run.timeUnit = u->asString();
        // Repeated runs: the median aggregate (keyed by run_name)
        // stands for the benchmark; mean/stddev/cv rows are skipped.
        if (const JsonValue *rt = b.find("run_type")) {
            if (rt->asString() != "iteration") {
                const JsonValue *agg = b.find("aggregate_name");
                if (agg && agg->asString() == "median")
                    medians[b.at("run_name").asString()] = run;
                continue;
            }
        }
        env.runs[b.at("name").asString()] = run;
    }
    for (const auto &[name, run] : medians)
        env.runs[name] = run;
    return env;
}

/** One campaign result curve, reduced to comparable numbers. */
struct CurveData
{
    std::map<double, double> accuracy; ///< x (defects/amplitude) -> mean
    bool hasPareto = false;
    double paretoAcc = 0.0;
    double areaOvh = 0.0;
    double energyOvh = 0.0;
};

/**
 * Flatten a campaign envelope's curves, keyed "figure task[:strategy]"
 * — the same identity the campaign layer uses to order them. Points
 * use whichever x coordinate the figure carries (defect counts, or
 * amplitude bins for fig11).
 */
std::map<std::string, CurveData>
loadCurves(const JsonValue &v)
{
    std::map<std::string, CurveData> curves;
    for (const JsonValue &c : v.at("results").items()) {
        std::string key;
        if (const JsonValue *fig = c.find("figure"))
            key = fig->asString();
        if (const JsonValue *task = c.find("task"))
            key += (key.empty() ? "" : " ") + task->asString();
        if (const JsonValue *strat = c.find("strategy"))
            key += ":" + strat->asString();

        CurveData data;
        const JsonValue *points = c.find("points");
        if (points == nullptr)
            points = c.find("bins");
        if (points != nullptr)
            for (const JsonValue &p : points->items()) {
                const JsonValue *x = p.find("defects");
                if (x == nullptr)
                    x = p.find("amplitude");
                const JsonValue *acc = p.find("accuracy");
                if (x != nullptr && acc != nullptr)
                    data.accuracy[x->asNumber()] = acc->asNumber();
            }
        if (const JsonValue *pareto = c.find("pareto")) {
            data.hasPareto = true;
            data.paretoAcc = pareto->at("accuracy").asNumber();
            data.areaOvh = pareto->at("area_overhead").asNumber();
            data.energyOvh = pareto->at("energy_overhead").asNumber();
        }
        curves[key] = data;
    }
    return curves;
}

/** Hardware-backend name of an envelope's config. Pre-backend
 *  envelopes (and fig5, whose config has no backend field) read as
 *  the implicit "spatial". */
std::string
envelopeBackend(const JsonValue &v)
{
    if (const JsonValue *config = v.find("config"))
        if (const JsonValue *backend = config->find("backend"))
            return backend->asString();
    return "spatial";
}

/** Informational diff of two campaign envelopes; always returns 0
 *  (2 when the envelopes target different hardware backends —
 *  accuracy deltas between backends are architecture differences,
 *  not regressions, so the diff would mislead). */
int
compareCampaigns(const JsonValue &base, const JsonValue &cur)
{
    std::string base_backend = envelopeBackend(base);
    std::string cur_backend = envelopeBackend(cur);
    if (base_backend != cur_backend) {
        std::fprintf(stderr,
                     "cannot compare campaign envelopes across "
                     "hardware backends (baseline is '%s', current "
                     "is '%s'): their accuracy deltas reflect the "
                     "architecture change, not a regression. Rerun "
                     "both campaigns on the same backend to "
                     "compare.\n",
                     base_backend.c_str(), cur_backend.c_str());
        return 2;
    }
    std::map<std::string, CurveData> b = loadCurves(base);
    std::map<std::string, CurveData> c = loadCurves(cur);

    std::printf("campaign envelope diff (kind \"%s\", "
                "informational)\n",
                cur.at("kind").asString().c_str());
    std::printf("%-40s %9s %9s %12s\n", "curve", "points",
                "max |da|", "pareto da");
    size_t compared = 0;
    for (const auto &kv : c) {
        auto it = b.find(kv.first);
        if (it == b.end()) {
            std::printf("%-40s  (new curve, no baseline)\n",
                        kv.first.c_str());
            continue;
        }
        ++compared;
        const CurveData &bd = it->second, &cd = kv.second;
        double max_delta = 0.0;
        size_t matched = 0;
        for (const auto &pt : cd.accuracy) {
            auto bp = bd.accuracy.find(pt.first);
            if (bp == bd.accuracy.end())
                continue;
            ++matched;
            max_delta = std::max(max_delta,
                                 std::abs(pt.second - bp->second));
        }
        if (cd.hasPareto && bd.hasPareto) {
            std::printf("%-40s %9zu %9.4f %+12.4f\n",
                        kv.first.c_str(), matched, max_delta,
                        cd.paretoAcc - bd.paretoAcc);
            if (cd.areaOvh != bd.areaOvh ||
                cd.energyOvh != bd.energyOvh)
                std::printf("%-40s   cost moved: area %+0.4f, "
                            "energy %+0.4f\n",
                            "", cd.areaOvh - bd.areaOvh,
                            cd.energyOvh - bd.energyOvh);
        } else {
            std::printf("%-40s %9zu %9.4f %12s\n", kv.first.c_str(),
                        matched, max_delta, "-");
        }
    }
    for (const auto &kv : b)
        if (c.find(kv.first) == c.end())
            std::printf("%-40s  (removed, baseline only)\n",
                        kv.first.c_str());
    std::printf("%zu curve(s) compared\n", compared);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string basePath, curPath;
    double tolerance = 0.5;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--tolerance") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--tolerance requires an argument\n");
                return usage(stderr);
            }
            char *end = nullptr;
            tolerance = std::strtod(argv[++i], &end);
            if (end == nullptr || *end != '\0' || tolerance < 0) {
                std::fprintf(stderr, "bad tolerance '%s'\n", argv[i]);
                return usage(stderr);
            }
        } else if (basePath.empty())
            basePath = arg;
        else if (curPath.empty())
            curPath = arg;
        else {
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (basePath.empty() || curPath.empty())
        return usage(stderr);

    Envelope base, cur;
    try {
        JsonValue baseJson = loadJson(basePath);
        JsonValue curJson = loadJson(curPath);
        bool baseCampaign = isCampaignEnvelope(baseJson);
        bool curCampaign = isCampaignEnvelope(curJson);
        if (baseCampaign != curCampaign)
            throw std::runtime_error(
                "cannot mix a campaign envelope with a benchmark "
                "envelope");
        if (baseCampaign) {
            std::string bk = baseJson.at("kind").asString();
            std::string ck = curJson.at("kind").asString();
            if (bk != ck)
                throw std::runtime_error(
                    "campaign kinds differ ('" + bk + "' vs '" + ck +
                    "')");
            return compareCampaigns(baseJson, curJson);
        }
        base = loadEnvelope(basePath, baseJson);
        cur = loadEnvelope(curPath, curJson);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_compare: %s\n", e.what());
        return 2;
    }

    if (base.buildType != cur.buildType) {
        std::fprintf(
            stderr,
            "bench_compare: build types differ (baseline '%s' vs "
            "current '%s'); timings are not comparable — skipping\n",
            base.buildType.empty() ? "unrecorded"
                                   : base.buildType.c_str(),
            cur.buildType.empty() ? "unrecorded"
                                  : cur.buildType.c_str());
        return 77;
    }

    std::printf("%-48s %14s %14s %9s\n", "benchmark",
                "baseline", "current", "speedup");
    size_t compared = 0;
    std::vector<std::string> regressions;
    for (const auto &kv : cur.runs) {
        auto it = base.runs.find(kv.first);
        if (it == base.runs.end())
            continue;
        const Run &b = it->second, &c = kv.second;
        if (!b.timeUnit.empty() && !c.timeUnit.empty() &&
            b.timeUnit != c.timeUnit) {
            std::printf("%-48s  (time units differ: %s vs %s)\n",
                        kv.first.c_str(), b.timeUnit.c_str(),
                        c.timeUnit.c_str());
            continue;
        }
        ++compared;
        double speedup =
            c.realTime > 0 ? b.realTime / c.realTime : 0.0;
        bool regressed =
            c.realTime > b.realTime * (1.0 + tolerance);
        std::printf("%-48s %12.1f%s %12.1f%s %8.2fx%s\n",
                    kv.first.c_str(), b.realTime,
                    b.timeUnit.c_str(), c.realTime,
                    c.timeUnit.c_str(), speedup,
                    regressed ? "  REGRESSED" : "");
        if (regressed)
            regressions.push_back(kv.first);
    }
    std::printf("%zu benchmark(s) compared, tolerance %.0f%%\n",
                compared, 100.0 * tolerance);
    if (!regressions.empty()) {
        std::fprintf(stderr,
                     "bench_compare: %zu benchmark(s) regressed "
                     "beyond tolerance:\n",
                     regressions.size());
        for (const std::string &name : regressions)
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 1;
    }
    return 0;
}
