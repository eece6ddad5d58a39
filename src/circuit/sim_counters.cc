#include "circuit/sim_counters.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace dtann {

double
SimCounters::laneOccupancy() const
{
    if (batchLaneSlots == 0)
        return 0.0;
    return static_cast<double>(batchVectors) /
        static_cast<double>(batchLaneSlots);
}

double
SimCounters::scalarFallbackRate() const
{
    uint64_t total = vectors();
    if (total == 0)
        return 0.0;
    return static_cast<double>(scalarVectors) /
        static_cast<double>(total);
}

std::string
SimCounters::toJson() const
{
    std::string out = "{\"scalar_vectors\":" +
        std::to_string(scalarVectors);
    out += ",\"batch_vectors\":" + std::to_string(batchVectors);
    out += ",\"batch_sweeps\":" + std::to_string(batchSweeps);
    out += ",\"batch_lane_slots\":" + std::to_string(batchLaneSlots);
    out += ",\"gate_evals\":" + std::to_string(gateEvals);
    out += ",\"batch_gate_sweeps\":" + std::to_string(batchGateSweeps);
    out += ",\"lane_occupancy\":" + jsonNumber(laneOccupancy());
    out += ",\"scalar_fallback_rate\":" +
        jsonNumber(scalarFallbackRate());
    out += "}";
    return out;
}

SimCounters
SimCounters::fromJson(const JsonValue &v)
{
    SimCounters c;
    c.scalarVectors = jsonGetUint(v, "scalar_vectors", 0);
    c.batchVectors = jsonGetUint(v, "batch_vectors", 0);
    c.batchSweeps = jsonGetUint(v, "batch_sweeps", 0);
    // Pre-wide-lane payloads lack the slot count; those sweeps were
    // all 64 lanes wide.
    c.batchLaneSlots =
        jsonGetUint(v, "batch_lane_slots", 64 * c.batchSweeps);
    c.gateEvals = jsonGetUint(v, "gate_evals", 0);
    c.batchGateSweeps = jsonGetUint(v, "batch_gate_sweeps", 0);
    return c;
}

void
logSimCounters(const char *what, const SimCounters &c)
{
    if (c.vectors() == 0)
        return;
    inform("%s sim counters: %llu vectors (%llu batch / %llu scalar), "
           "lane occupancy %.2f, scalar fallback %.1f%%, "
           "%llu scalar gate evals, %llu batch gate sweeps, "
           "%llu scalar vectors answered without a sweep (repeat "
           "record and latch relaxation memo)",
           what,
           static_cast<unsigned long long>(c.vectors()),
           static_cast<unsigned long long>(c.batchVectors),
           static_cast<unsigned long long>(c.scalarVectors),
           c.laneOccupancy(), 100.0 * c.scalarFallbackRate(),
           static_cast<unsigned long long>(c.gateEvals),
           static_cast<unsigned long long>(c.batchGateSweeps),
           static_cast<unsigned long long>(c.memoHits));
}

} // namespace dtann
