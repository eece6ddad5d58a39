#include "service/spec.hh"

#include <algorithm>

#include "common/json.hh"

namespace dtann {

std::string
Fig5Sweep::toJson() const
{
    std::string out = "{" + jsonRunFields();
    out += ",\"operators\":[";
    for (size_t i = 0; i < operators.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(fig5OperatorName(operators[i]));
    }
    out += "],\"defect_counts\":[";
    for (size_t i = 0; i < defectCounts.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(defectCounts[i]);
    }
    out += "],\"fa_style\":" + jsonString(faStyleName(style));
    out += "}";
    return out;
}

Fig5Sweep
Fig5Sweep::fromJson(const JsonValue &v)
{
    Fig5Sweep s;
    s.readRunFields(v);
    if (const JsonValue *ops = v.find("operators")) {
        s.operators.clear();
        for (const JsonValue &e : ops->items()) {
            Fig5Operator op;
            if (!fig5OperatorFromName(e.asString(), op))
                throw JsonError("unknown operator '" + e.asString() +
                                "' (expected adder4 or multiplier4)");
            s.operators.push_back(op);
        }
    }
    s.defectCounts = jsonGetIntArray(v, "defect_counts", s.defectCounts);
    std::string style = jsonGetString(v, "fa_style", faStyleName(s.style));
    if (!faStyleFromName(style, s.style))
        throw JsonError("unknown fa_style '" + style +
                        "' (expected nand9 or mirror)");
    // Refuse what expand() would build first: an oversized sweep,
    // then a repeated operator, whose rows all repeat the first
    // occurrence's keys (checkRows() names the first shared key).
    checkCellBound(cellProduct(s.operators.size(), s.defectCounts.size()));
    for (auto op = s.operators.begin();
         op != s.operators.end() && !s.defectCounts.empty(); ++op) {
        if (std::find(s.operators.begin(), op, *op) == op)
            continue;
        CellRow first{fig5OperatorName(*op),
                      'd' + std::to_string(s.defectCounts.front()), 1, {}};
        checkRows("fig5", {first, first});
    }
    return s;
}

std::vector<Fig5Config>
Fig5Sweep::expand() const
{
    // Every variant holds at least one cell: refuse an oversized
    // cross product before it is built.
    checkCellBound(cellProduct(operators.size(), defectCounts.size()));
    std::vector<Fig5Config> cells;
    for (size_t o = 0; o < operators.size(); ++o)
        for (int defects : defectCounts) {
            Fig5Config c;
            static_cast<CampaignRunConfig &>(c) = *this;
            c.op = operators[o];
            c.defects = defects;
            c.style = style;
            c.seed = seed + static_cast<uint64_t>(defects) + 1000 * o;
            cells.push_back(std::move(c));
        }
    return cells;
}

CampaignRunConfig &
ScenarioSpec::runConfig()
{
    if (kind == "fig5")
        return fig5;
    if (kind == "fig10")
        return fig10;
    if (kind == "fig11")
        return fig11;
    return mitigation;
}

const CampaignRunConfig &
ScenarioSpec::runConfig() const
{
    return const_cast<ScenarioSpec *>(this)->runConfig();
}

const CampaignConfig *
ScenarioSpec::campaignConfig() const
{
    if (kind == "fig5")
        return nullptr;
    if (kind == "fig10")
        return &fig10;
    if (kind == "fig11")
        return &fig11;
    return &mitigation;
}

std::string
ScenarioSpec::backendLabel() const
{
    const CampaignConfig *c = campaignConfig();
    return c == nullptr ? "" : backendName(c->backend);
}

std::string
ScenarioSpec::toJson() const
{
    std::string config;
    if (kind == "fig5")
        config = fig5.toJson();
    else if (kind == "fig10")
        config = fig10.toJson();
    else if (kind == "fig11")
        config = fig11.toJson();
    else
        config = mitigation.toJson();
    // Splice the config fields inline after kind/name: config is
    // "{...}", so dropping its opening brace concatenates cleanly.
    return "{\"kind\":" + jsonString(kind) +
        ",\"name\":" + jsonString(name) + "," + config.substr(1);
}

std::vector<CellRow>
ScenarioSpec::cellRows() const
{
    if (kind == "fig5")
        return dtann::cellRows(fig5.expand());
    if (kind == "fig10")
        return dtann::cellRows(fig10);
    if (kind == "fig11")
        return dtann::cellRows(fig11);
    if (kind == "mitigation")
        return dtann::cellRows(mitigation);
    throw JsonError("unknown campaign kind '" + kind + "'");
}

std::string
ScenarioSpec::journalEcho() const
{
    ScenarioSpec normalized = *this;
    normalized.runConfig().threads = 0;
    return normalized.toJson();
}

ScenarioSpec
ScenarioSpec::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw JsonError("scenario spec must be a JSON object");
    ScenarioSpec spec;
    spec.kind = v.at("kind").asString();
    bool known = false;
    for (const std::string &k : scenarioKinds())
        known = known || k == spec.kind;
    if (!known) {
        std::string kinds;
        for (const std::string &k : scenarioKinds())
            kinds += (kinds.empty() ? "" : ", ") + k;
        throw JsonError("unknown campaign kind '" + spec.kind +
                        "' (expected one of: " + kinds + ")");
    }
    spec.name = jsonGetString(v, "name", spec.kind);
    if (spec.kind == "fig5")
        spec.fig5 = Fig5Sweep::fromJson(v);
    else if (spec.kind == "fig10")
        spec.fig10 = Fig10Config::fromJson(v);
    else if (spec.kind == "fig11")
        spec.fig11 = Fig11Config::fromJson(v);
    else
        spec.mitigation = MitigationConfig::fromJson(v);
    // Refuse unknown tasks, colliding cell keys and oversized
    // campaigns before any journal is opened or any cell runs.
    spec.cellRows();
    return spec;
}

ScenarioSpec
ScenarioSpec::parse(const std::string &text)
{
    return fromJson(jsonParse(text));
}

std::vector<std::string>
scenarioKinds()
{
    return {"fig5", "fig10", "fig11", "mitigation"};
}

} // namespace dtann
