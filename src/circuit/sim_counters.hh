/**
 * @file
 * Throughput accounting for faulty-operator simulation.
 *
 * Campaigns funnel their retraining epochs and test sweeps through
 * gate-level simulation of the defective operators; these counters
 * record how much of that work went down each path (wide-lane batch
 * vs scalar relaxation) and how many gate evaluations it cost, so a
 * campaign can report its effective speedup alongside its results.
 * All fields are plain sums, so merging is order-independent and
 * campaign totals stay bit-identical for any thread count. Sweep
 * and lane-slot counts depend on the configured lane width
 * (DTANN_LANES); the scientific results they ride along with do
 * not.
 */

#ifndef DTANN_CIRCUIT_SIM_COUNTERS_HH
#define DTANN_CIRCUIT_SIM_COUNTERS_HH

#include <cstdint>
#include <string>

namespace dtann {

/** Work counters of one or more simulated faulty operators. */
struct SimCounters
{
    /** Input vectors evaluated one at a time (relaxation path). */
    uint64_t scalarVectors = 0;
    /** Input vectors evaluated through the wide-lane batch path. */
    uint64_t batchVectors = 0;
    /** Batch sweeps executed (one kernel pass, any lane width). */
    uint64_t batchSweeps = 0;
    /** Lane slots provisioned across batch sweeps (sum of each
     *  sweep's lane width; occupancy = batchVectors / this). */
    uint64_t batchLaneSlots = 0;
    /** Scalar gate evaluations executed (gates x sweeps). */
    uint64_t gateEvals = 0;
    /** Gates swept by batch calls (whole planes per gate). */
    uint64_t batchGateSweeps = 0;
    /**
     * Scalar vectors answered without a sweep: by an OperatorSim's
     * repeat record (a call repeating the previous one, which left
     * its state) or, on latch registers, by the relaxation memo. A
     * subset of scalarVectors; their gates still count in gateEvals.
     * Telemetry only: toJson() leaves it out, so exports match
     * record- and memo-free runs byte for byte.
     */
    uint64_t memoHits = 0;

    /** Accumulate another counter set. */
    void
    merge(const SimCounters &o)
    {
        scalarVectors += o.scalarVectors;
        batchVectors += o.batchVectors;
        batchSweeps += o.batchSweeps;
        batchLaneSlots += o.batchLaneSlots;
        gateEvals += o.gateEvals;
        batchGateSweeps += o.batchGateSweeps;
        memoHits += o.memoHits;
    }

    /** Total vectors pushed through faulty operators. */
    uint64_t vectors() const { return scalarVectors + batchVectors; }

    /** Mean occupied lanes per batch sweep, in [0, 1]. */
    double laneOccupancy() const;

    /** Fraction of vectors that fell back to the scalar path. */
    double scalarFallbackRate() const;

    /** Single JSON object (embedded in campaign exports). */
    std::string toJson() const;

    /**
     * Parse a toJson() payload back (derived rates are recomputed,
     * not read). Counters round-trip exactly; the result journal
     * relies on this for bit-identical campaign resume.
     */
    static SimCounters fromJson(const class JsonValue &v);
};

/**
 * Log one env::dump()-style banner line summarising @p c, tagged
 * with @p what (e.g. the campaign name). No-op when no vectors were
 * simulated.
 */
void logSimCounters(const char *what, const SimCounters &c);

} // namespace dtann

#endif // DTANN_CIRCUIT_SIM_COUNTERS_HH
