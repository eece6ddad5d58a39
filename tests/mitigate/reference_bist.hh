/**
 * @file
 * Reference BIST pass (tests only).
 *
 * runBist() leaves a unit that is neither faulty nor bypassed
 * undriven: such a unit answers with its reference function by
 * construction, so the pass only draws its vectors, keeping the
 * stream where driving it would leave it (DESIGN.md §8). This is the
 * loop that rule replaced: every unit of the pool is driven through
 * the scan access path and compared, clean or not. The clean-skip
 * differential suite holds runBist() and diagnose() to it on both
 * backends.
 */

#ifndef DTANN_TESTS_MITIGATE_REFERENCE_BIST_HH
#define DTANN_TESTS_MITIGATE_REFERENCE_BIST_HH

#include "ann/sigmoid.hh"
#include "mitigate/bist.hh"

namespace dtann {

namespace reference_bist {

inline Fix16
testFix16(int v, Rng &rng)
{
    if (v == 0)
        return Fix16();
    if (v == 1)
        return Fix16::fromRaw(-1);
    return Fix16::fromRaw(
        static_cast<int16_t>(rng.nextUint(1ull << 16)));
}

inline Acc24
testAcc24(int v, Rng &rng)
{
    if (v == 0)
        return Acc24();
    if (v == 1)
        return Acc24::fromRaw(-1);
    return Acc24::fromRaw(static_cast<int32_t>(
        rng.nextInt(Acc24::rawMin, Acc24::rawMax)));
}

/** Drive @p vectors test vectors through @p s; true = mismatch. */
inline bool
probeUnit(HardwareBackend &accel, const UnitSite &s, int vectors,
          Rng &rng)
{
    for (int v = 0; v < vectors; ++v) {
        switch (s.kind) {
          case UnitKind::Multiplier: {
            Fix16 w = testFix16(v, rng);
            Fix16 x = testFix16(v == 1 ? 2 : v, rng);
            if (accel.bistMul(s.layer, s.neuron, s.index, w, x) !=
                Fix16::hwMul(w, x))
                return true;
            break;
          }
          case UnitKind::AdderStage: {
            Acc24 a = testAcc24(v, rng);
            Acc24 b = testAcc24(v == 1 ? 2 : v, rng);
            if (accel.bistAdd(s.layer, s.neuron, s.index, a, b) !=
                Acc24::hwAdd(a, b))
                return true;
            break;
          }
          case UnitKind::Activation: {
            Fix16 x = testFix16(v, rng);
            if (accel.bistAct(s.layer, s.neuron, x) !=
                logisticPwlFix(x))
                return true;
            break;
          }
          case UnitKind::WeightLatch: {
            Fix16 d = testFix16(v, rng);
            if (accel.bistLatchStore(s.layer, s.neuron, s.index, d) !=
                d)
                return true;
            break;
          }
        }
    }
    return false;
}

} // namespace reference_bist

/** runBist() with every unit of the pool driven. */
inline BistResult
referenceRunBist(HardwareBackend &accel, const BistConfig &config,
                 Rng &rng)
{
    BistResult result;
    for (const UnitSite &s : accel.enumerateSites(config.pool)) {
        ++result.unitsTested;
        result.vectorsApplied +=
            static_cast<size_t>(config.vectorsPerUnit);
        if (reference_bist::probeUnit(accel, s, config.vectorsPerUnit,
                                      rng))
            result.map.markSuspect(s);
    }
    accel.clearProbes();
    return result;
}

/** diagnose() over referenceRunBist(). */
inline DiagnosisReport
referenceDiagnose(HardwareBackend &accel, const BistConfig &config,
                  Rng &rng, DefectMap *out = nullptr)
{
    BistResult bist = referenceRunBist(accel, config, rng);
    DiagnosisReport report =
        scoreDiagnosis(bist.map, accel.faultySites());
    report.unitsTested = bist.unitsTested;
    report.vectorsApplied = bist.vectorsApplied;
    if (out != nullptr)
        *out = std::move(bist.map);
    return report;
}

} // namespace dtann

#endif // DTANN_TESTS_MITIGATE_REFERENCE_BIST_HH
