/**
 * @file
 * BIST-style defect diagnosis.
 *
 * A built-in self-test pass isolates each unit instance of the
 * array through the scan access path (HardwareBackend::bist*) and
 * drives a configurable budget of test vectors through it — two
 * deterministic corner vectors followed by random ones — comparing
 * each response against the native fixed-point reference. Any
 * mismatch flags the unit in the DefectMap.
 *
 * Coverage is imperfect by construction: a small vector budget can
 * miss faults that only disturb rare input patterns, and some
 * transistor defects never alter the unit's function at all (e.g.
 * delay faults on non-critical paths, defects masked by the B-block
 * resolution). The measured coverage / false-negative rate against
 * the injector's ground truth is itself an experimental output.
 */

#ifndef DTANN_MITIGATE_BIST_HH
#define DTANN_MITIGATE_BIST_HH

#include "core/injector.hh"
#include "mitigate/defect_map.hh"

namespace dtann {

/** Knobs of one diagnosis pass. */
struct BistConfig
{
    /** Units to probe (diagnosis sweeps the whole array by default). */
    SitePool pool = SitePool::all();
    /** Test vectors per unit instance (>= 1). The first two vectors
     *  are deterministic corners (all-zeros, all-ones); the rest are
     *  random. */
    int vectorsPerUnit = 12;
};

/** Outcome of one diagnosis pass. */
struct BistResult
{
    DefectMap map;             ///< flagged unit instances
    size_t unitsTested = 0;    ///< unit instances probed
    size_t vectorsApplied = 0; ///< total vectors driven
};

/**
 * Run one BIST pass over @p accel. Probing exercises faulty units'
 * gate-level simulations (their internal state advances) and resets
 * the deviation probes afterwards; installed weights are untouched.
 * The probed population is the backend's own physical site
 * enumeration, so a shared systolic PE is tested once, not once per
 * pass that routes through it. A unit that is neither faulty nor
 * bypassed answers with its reference function, so it is not
 * driven; its vectors are still drawn from @p rng, which ends where
 * driving every unit would leave it.
 */
BistResult runBist(HardwareBackend &accel, const BistConfig &config,
                   Rng &rng);

/**
 * Run one BIST pass and score it against the injector's ground
 * truth in one step. When @p out is non-null the defect map is
 * copied there for use by a mitigation strategy.
 */
DiagnosisReport diagnose(HardwareBackend &accel,
                         const BistConfig &config, Rng &rng,
                         DefectMap *out = nullptr);

} // namespace dtann

#endif // DTANN_MITIGATE_BIST_HH
