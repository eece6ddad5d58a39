#include "core/engine.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace dtann {

std::string
CellKey::toString() const
{
    return campaign + "/" + task + "/" + variant + "/" +
        std::to_string(rep);
}

size_t
cellCount(const std::vector<CellRow> &rows)
{
    size_t n = 0;
    for (const CellRow &row : rows)
        n += row.reps;
    return n;
}

void
checkCellBound(size_t cells)
{
    if (cells > kMaxCells)
        throw JsonError("campaign lists at least " +
                        std::to_string(cells) + " cells; at most " +
                        std::to_string(kMaxCells) + " are allowed");
}

size_t
cellProduct(size_t a, size_t b)
{
    constexpr size_t cap = size_t(1) << 31;
    return std::min(std::min(a, cap) * std::min(b, cap), cap);
}

void
checkRows(const std::string &campaign, const std::vector<CellRow> &rows)
{
    std::set<std::pair<std::string, std::string>> seen;
    for (const CellRow &row : rows)
        if (!seen.insert({row.task, row.variant}).second)
            throw JsonError("cell key '" +
                            CellKey{campaign, row.task, row.variant, 0}
                                .toString() +
                            "' names two cells (repeated task, "
                            "operator, defect count or strategy)");
}

bool
journalLookup(CellCache *journal, const CellKey &key,
              const std::function<void(const JsonValue &)> &decode)
{
    if (journal == nullptr)
        return false;
    std::string payload;
    if (!journal->lookup(key, payload))
        return false;
    try {
        decode(jsonParse(payload));
        return true;
    } catch (const JsonError &e) {
        warn("journaled cell %s is corrupt (%s); recomputing",
             key.toString().c_str(), e.what());
        return false;
    }
}

std::string
CampaignRunConfig::jsonRunFields() const
{
    std::string out = "\"repetitions\":" + std::to_string(repetitions);
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"threads\":" + std::to_string(threads);
    return out;
}

void
CampaignRunConfig::readRunFields(const JsonValue &v)
{
    repetitions = jsonGetInt(v, "repetitions", repetitions, 1,
                             1 << 30);
    seed = jsonGetUint(v, "seed", seed);
    threads = jsonGetInt(v, "threads", threads, 0, 4096);
}

std::string
CampaignConfig::jsonCampaignFields() const
{
    std::string out = jsonRunFields();
    out += ",\"tasks\":[";
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(tasks[i]);
    }
    out += "],\"folds\":" + std::to_string(folds);
    out += ",\"rows\":" + std::to_string(rows);
    out += ",\"epoch_scale\":" + jsonNumber(epochScale);
    out += ",\"retrain_scale\":" + jsonNumber(retrainScale);
    out += ",\"array\":" + array.toJson();
    out += ",\"weighting\":" + jsonString(siteWeightingName(weighting));
    out += ",\"backend\":" + jsonString(backendName(backend));
    return out;
}

void
CampaignConfig::readCampaignFields(const JsonValue &v)
{
    readRunFields(v);
    tasks = jsonGetStringArray(v, "tasks", tasks);
    folds = jsonGetInt(v, "folds", folds, 2, 1 << 20);
    rows = static_cast<size_t>(
        jsonGetInt(v, "rows", static_cast<int>(rows), 0, 1 << 30));
    epochScale = jsonGetDouble(v, "epoch_scale", epochScale);
    retrainScale = jsonGetDouble(v, "retrain_scale", retrainScale);
    if (const JsonValue *a = v.find("array"))
        array = AcceleratorConfig::fromJson(*a);
    std::string w =
        jsonGetString(v, "weighting", siteWeightingName(weighting));
    if (!siteWeightingFromName(w, weighting))
        throw JsonError("unknown weighting '" + w +
                        "' (expected uniform or transistor)");
    std::string b = jsonGetString(v, "backend", backendName(backend));
    if (!backendFromName(b, backend))
        throw JsonError("unknown backend '" + b + "' (expected one "
                        "of: " + backendNameList() + ")");
}

CampaignEngine::CampaignEngine(const CampaignRunConfig &config)
    : owned(config.sharedPool != nullptr
                ? nullptr
                : std::make_unique<ThreadPool>(config.threads)),
      pool(config.sharedPool != nullptr ? config.sharedPool
                                        : owned.get()),
      cancel(config.cancel), onCellDone(config.onCellDone)
{
}

void
CampaignEngine::parallelFor(size_t n,
                            const std::function<void(size_t)> &fn)
{
    if (cancel == nullptr) {
        pool->parallelFor(n, fn);
        return;
    }
    // Cooperative cancellation: raised mid-batch, the remaining
    // indices become no-ops, the batch drains quickly, and the
    // campaign unwinds here instead of producing a partial result.
    pool->parallelFor(n, [&](size_t i) {
        if (cancel->load(std::memory_order_relaxed))
            return;
        fn(i);
    });
    if (cancel->load(std::memory_order_relaxed))
        throw CampaignCancelled();
}

void
CampaignEngine::beginCampaign(size_t total_cells)
{
    std::lock_guard<std::mutex> lk(mu);
    done = 0;
    total = total_cells;
}

void
CampaignEngine::reportCell(CellReport report)
{
    std::lock_guard<std::mutex> lk(mu);
    report.cellsDone = ++done;
    report.cellsTotal = total;
    if (onCellDone)
        onCellDone(report);
}

} // namespace dtann
