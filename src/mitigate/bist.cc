#include "mitigate/bist.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

namespace {

/** Test operand for vector @p v: corners first, then random. */
Fix16
testFix16(int v, Rng &rng)
{
    if (v == 0)
        return Fix16();                 // all zeros
    if (v == 1)
        return Fix16::fromRaw(-1);      // all ones
    return Fix16::fromRaw(
        static_cast<int16_t>(rng.nextUint(1ull << 16)));
}

Acc24
testAcc24(int v, Rng &rng)
{
    if (v == 0)
        return Acc24();
    if (v == 1)
        return Acc24::fromRaw(-1);      // all ones
    return Acc24::fromRaw(static_cast<int32_t>(
        rng.nextInt(Acc24::rawMin, Acc24::rawMax)));
}

/** Probe one unit with @p vectors test vectors; true = mismatch.
 *  A clean unit's vectors are drawn in the same order but not
 *  driven (see runBist()). */
bool
probeUnit(HardwareBackend &accel, const UnitSite &s, int vectors,
          Rng &rng)
{
    const bool driven = accel.isFaulty(s) || accel.isBypassed(s);
    for (int v = 0; v < vectors; ++v) {
        switch (s.kind) {
          case UnitKind::Multiplier: {
            Fix16 w = testFix16(v, rng);
            Fix16 x = testFix16(v == 1 ? 2 : v, rng);
            if (driven &&
                accel.bistMul(s.layer, s.neuron, s.index, w, x) !=
                    Fix16::hwMul(w, x))
                return true;
            break;
          }
          case UnitKind::AdderStage: {
            Acc24 a = testAcc24(v, rng);
            Acc24 b = testAcc24(v == 1 ? 2 : v, rng);
            if (driven &&
                accel.bistAdd(s.layer, s.neuron, s.index, a, b) !=
                    Acc24::hwAdd(a, b))
                return true;
            break;
          }
          case UnitKind::Activation: {
            Fix16 x = testFix16(v, rng);
            if (driven &&
                accel.bistAct(s.layer, s.neuron, x) != logisticPwlFix(x))
                return true;
            break;
          }
          case UnitKind::WeightLatch: {
            Fix16 d = testFix16(v, rng);
            if (driven &&
                accel.bistLatchStore(s.layer, s.neuron, s.index, d) != d)
                return true;
            break;
          }
        }
    }
    return false;
}

} // namespace

BistResult
runBist(HardwareBackend &accel, const BistConfig &config, Rng &rng)
{
    dtann_assert(config.vectorsPerUnit >= 1,
                 "BIST needs at least one vector per unit");
    BistResult result;
    std::vector<UnitSite> sites = accel.enumerateSites(config.pool);
    for (const UnitSite &s : sites) {
        ++result.unitsTested;
        result.vectorsApplied +=
            static_cast<size_t>(config.vectorsPerUnit);
        if (probeUnit(accel, s, config.vectorsPerUnit, rng))
            result.map.markSuspect(s);
    }
    // Probing pollutes the faulty units' deviation probes; reset
    // them so accuracy-phase amplitude measurements stay clean.
    accel.clearProbes();
    return result;
}

DiagnosisReport
diagnose(HardwareBackend &accel, const BistConfig &config, Rng &rng,
         DefectMap *out)
{
    BistResult bist = runBist(accel, config, rng);
    DiagnosisReport report =
        scoreDiagnosis(bist.map, accel.faultySites());
    report.unitsTested = bist.unitsTested;
    report.vectorsApplied = bist.vectorsApplied;
    if (out != nullptr)
        *out = std::move(bist.map);
    return report;
}

} // namespace dtann
