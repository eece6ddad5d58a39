/**
 * @file
 * Experiment scaling knobs.
 *
 * Paper-scale campaigns (1000 repetitions, full hyper-parameter
 * grids, 10-fold cross-validation on every point) take hours. The
 * bench harness therefore defaults to scaled-down runs that keep the
 * shape of every result, and switches to paper scale when the
 * environment variable DTANN_FULL=1 is set.
 */

#ifndef DTANN_COMMON_ENV_HH
#define DTANN_COMMON_ENV_HH

#include <string>

namespace dtann {

/** True when DTANN_FULL=1 requests paper-scale experiments. */
bool fullScale();

/** Pick @p full at paper scale, @p quick otherwise. */
int scaled(int full, int quick);

/**
 * Global experiment seed; DTANN_SEED overrides the default.
 * Negative or non-numeric values are rejected with a warning and
 * the default seed is used.
 */
unsigned long experimentSeed();

/**
 * Campaign worker threads requested via DTANN_THREADS, or 0 when
 * unset (auto: use the hardware concurrency). Negative, non-numeric
 * or absurd values are rejected with a warning and fall back to
 * auto. Campaign results are bit-identical for every thread count.
 */
int threadCount();

/**
 * Directory for machine-readable JSON result exports (DTANN_JSON_OUT),
 * or empty when JSON export is disabled.
 */
std::string jsonOutDir();

/**
 * True when DTANN_NO_BATCH=1 disables the 64-lane faulty batch
 * path, forcing every vector through the scalar Evaluator. Campaign
 * results are bit-identical either way; the knob exists for
 * equivalence tests and for isolating perf regressions. Values other
 * than 0/1 are rejected with a warning.
 */
bool noBatch();

/**
 * Requested batch lane width from DTANN_LANES: 64, 256 or 512, or
 * 0 when unset (auto: the widest plane the machine backs with
 * native SIMD — see circuit/lane_plane.hh, which resolves this).
 * Other values are rejected with a warning and fall back to auto.
 * Results are bit-identical at every width; 64 keeps the original
 * single-word path as the differential oracle.
 */
int laneConfig();

namespace env {

/**
 * Log every active DTANN_* knob (raw value and resolved meaning) at
 * inform() level, so a JSON export is reproducible from the log
 * alone. Benches call this from the banner.
 */
void dump();

} // namespace env

} // namespace dtann

#endif // DTANN_COMMON_ENV_HH
