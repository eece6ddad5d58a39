#include "service/plan.hh"

#include "common/json.hh"

namespace dtann {

std::string
SpecPlan::toJson() const
{
    std::string out = "{\"cells\":" + std::to_string(cells);
    out += ",\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"task\":" + jsonString(rows[i].task);
        out += ",\"variant\":" + jsonString(rows[i].variant);
        out += ",\"reps\":" + std::to_string(rows[i].reps) + "}";
    }
    out += "]}";
    return out;
}

SpecPlan
planSpec(const ScenarioSpec &spec)
{
    // Consecutive keys of one (task, variant) form a row.
    SpecPlan plan;
    for (const CellKey &key : spec.cellKeys()) {
        if (plan.rows.empty() || plan.rows.back().task != key.task ||
            plan.rows.back().variant != key.variant)
            plan.rows.push_back({key.task, key.variant, 0});
        ++plan.rows.back().reps;
        ++plan.cells;
    }
    return plan;
}

} // namespace dtann
