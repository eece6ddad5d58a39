#include "core/engine.hh"

#include <unordered_set>

#include "common/json.hh"
#include "common/logging.hh"

namespace dtann {

std::string
CellKey::toString() const
{
    return campaign + "/" + task + "/" + variant + "/" +
        std::to_string(rep);
}

void
checkUniqueKeys(const std::vector<CellKey> &keys)
{
    // Keys are compared in place: admission enumerates every cell
    // of a spec, so no per-key string is built.
    auto hash = [](const CellKey *k) {
        std::hash<std::string> h;
        return h(k->campaign) ^ (h(k->task) * 3) ^ (h(k->variant) * 5) ^
            (std::hash<uint64_t>()(k->rep) * 7);
    };
    auto equal = [](const CellKey *a, const CellKey *b) {
        return a->rep == b->rep && a->variant == b->variant &&
            a->task == b->task && a->campaign == b->campaign;
    };
    std::unordered_set<const CellKey *, decltype(hash), decltype(equal)>
        seen(keys.size(), hash, equal);
    for (const CellKey &key : keys)
        if (!seen.insert(&key).second)
            throw JsonError("cell key '" + key.toString() +
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
