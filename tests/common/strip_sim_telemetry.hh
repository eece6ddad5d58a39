/**
 * @file
 * Test helper shared by the campaign-export comparisons: strip the
 * lane-width-dependent simulation telemetry from an export so the
 * remaining result fields can be compared bit for bit.
 */

#ifndef DTANN_TESTS_COMMON_STRIP_SIM_TELEMETRY_HH
#define DTANN_TESTS_COMMON_STRIP_SIM_TELEMETRY_HH

#include <string>

namespace dtann {

/**
 * Drop every "sim":{...} telemetry object from a campaign export.
 * Batch sweep counts, lane slots and occupancy are definitionally
 * lane-width-dependent throughput metrics (they follow the host's
 * native plane width); all *result* fields (accuracies, stddev,
 * coverage, cost, Pareto) stay in the string.
 */
inline std::string
stripSimTelemetry(std::string json)
{
    const std::string key = ",\"sim\":{";
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
        size_t close = json.find('}', at); // sim objects are flat
        json.erase(at, close - at + 1);
    }
    return json;
}

} // namespace dtann

#endif // DTANN_TESTS_COMMON_STRIP_SIM_TELEMETRY_HH
