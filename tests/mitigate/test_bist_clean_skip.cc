/**
 * @file
 * BIST's undriven clean units against the full probe.
 *
 * runBist() draws a clean, unbypassed unit's vectors but neither
 * drives nor compares them; faulty and bypassed units keep the full
 * probe. referenceRunBist() (reference_bist.hh) drives every unit.
 * On both backends, over random injections, bypassed clean and
 * faulty units, several vector budgets and two pools, the two must
 * agree on the diagnosis, leave the stream at the same word, run the
 * same simulation work and leave the same probes, pass after pass.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/systolic.hh"
#include "mitigate/bist.hh"
#include "reference_bist.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

/** One array state and BIST pass to compare. */
struct Scenario
{
    uint64_t seed;
    int defects;        ///< random injections (0: defect-free)
    int cleanBypasses;  ///< bypass draws over defect-free sites
    int faultyBypasses; ///< bypass draws over faulty sites
    SitePool pool;
    int vectors;
};

/**
 * Put @p sc's defects and bypasses into @p accel. Half the faulty
 * sites take extra defects, so that some probes stop early on a
 * mismatch and others run every vector.
 */
void
prepare(HardwareBackend &accel, const Scenario &sc)
{
    Rng rng = Rng::substream(sc.seed, {0});
    DefectInjector(accel, SitePool::all()).inject(sc.defects, rng);
    std::vector<UnitSite> faulty = accel.faultySites();
    for (size_t i = 0; i < faulty.size(); i += 2)
        accel.injectDefects(faulty[i], 8, rng);
    for (int i = 0; i < sc.faultyBypasses && !faulty.empty(); ++i)
        accel.bypassUnit(faulty[rng.nextUint(faulty.size())]);
    std::vector<UnitSite> all = accel.enumerateSites(SitePool::all());
    for (int i = 0; i < sc.cleanBypasses; ++i) {
        const UnitSite &s = all[rng.nextUint(all.size())];
        if (!accel.isFaulty(s))
            accel.bypassUnit(s);
    }
}

void
expectSameCounters(const SimCounters &a, const SimCounters &b)
{
    EXPECT_EQ(a.scalarVectors, b.scalarVectors);
    EXPECT_EQ(a.batchVectors, b.batchVectors);
    EXPECT_EQ(a.batchSweeps, b.batchSweeps);
    EXPECT_EQ(a.batchLaneSlots, b.batchLaneSlots);
    EXPECT_EQ(a.gateEvals, b.gateEvals);
    EXPECT_EQ(a.batchGateSweeps, b.batchGateSweeps);
    EXPECT_EQ(a.memoHits, b.memoHits);
}

void
expectSameState(HardwareBackend &ref, Rng &ref_rng,
                HardwareBackend &got, Rng &got_rng)
{
    expectSameCounters(ref.simCounters(), got.simCounters());
    for (const UnitSite &s : ref.faultySites()) {
        const RunningStat &a = ref.probe(s).amplitude;
        const RunningStat &b = got.probe(s).amplitude;
        EXPECT_EQ(a.count(), b.count()) << s.describe();
        EXPECT_EQ(a.mean(), b.mean()) << s.describe();
        EXPECT_EQ(a.variance(), b.variance()) << s.describe();
        EXPECT_EQ(a.min(), b.min()) << s.describe();
        EXPECT_EQ(a.max(), b.max()) << s.describe();
    }
    // Copies: the passes that follow keep drawing from the streams.
    Rng ref_next = ref_rng, got_next = got_rng;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ref_next.nextWord(), got_next.nextWord())
            << "word " << i << " after the pass";
}

/** What the reference passes flagged, summed over scenarios. */
struct Flagged
{
    size_t faulty = 0;      ///< faulty units (bypassed or not)
    size_t cleanBypass = 0; ///< bypassed units hosting no defect
};

/** Compare two runBist() and two diagnose() passes on fresh
 *  identical arrays. */
template <class Backend>
void
checkScenario(const Scenario &sc, Flagged &flagged)
{
    SCOPED_TRACE(testing::Message()
                 << "seed " << sc.seed << ", " << sc.defects
                 << " defects, " << sc.vectors << " vectors");
    AcceleratorConfig cfg = smallConfig();
    Backend ref(cfg, {12, 4, 3}), got(cfg, {12, 4, 3});
    prepare(ref, sc);
    prepare(got, sc);
    ASSERT_EQ(ref.faultySites(), got.faultySites());
    ASSERT_EQ(ref.bypassedSites(), got.bypassedSites());

    BistConfig bist;
    bist.pool = sc.pool;
    bist.vectorsPerUnit = sc.vectors;
    Rng ref_rng = Rng::substream(sc.seed, {1});
    Rng got_rng = ref_rng;
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(testing::Message() << "runBist pass " << pass);
        BistResult a = referenceRunBist(ref, bist, ref_rng);
        BistResult b = runBist(got, bist, got_rng);
        EXPECT_EQ(a.map.suspects(), b.map.suspects());
        EXPECT_EQ(a.unitsTested, b.unitsTested);
        EXPECT_EQ(a.vectorsApplied, b.vectorsApplied);
        expectSameState(ref, ref_rng, got, got_rng);
        for (const UnitSite &s : a.map.suspects()) {
            if (ref.isFaulty(s))
                ++flagged.faulty;
            else if (ref.isBypassed(s))
                ++flagged.cleanBypass;
        }
    }
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(testing::Message() << "diagnose pass " << pass);
        DefectMap ma, mb;
        DiagnosisReport a = referenceDiagnose(ref, bist, ref_rng, &ma);
        DiagnosisReport b = diagnose(got, bist, got_rng, &mb);
        EXPECT_EQ(ma.suspects(), mb.suspects());
        EXPECT_EQ(a.unitsTested, b.unitsTested);
        EXPECT_EQ(a.vectorsApplied, b.vectorsApplied);
        EXPECT_EQ(a.truePositives, b.truePositives);
        EXPECT_EQ(a.falsePositives, b.falsePositives);
        EXPECT_EQ(a.falseNegatives, b.falseNegatives);
        expectSameState(ref, ref_rng, got, got_rng);
    }
}

template <class Backend>
void
checkAllScenarios()
{
    const int defects[] = {0, 1, 3, 6, 12};
    uint64_t seed = 1;
    Flagged flagged;
    for (const SitePool &pool :
         {SitePool::all(), SitePool::outputCritical()})
        for (int vectors : {1, 2, 3, 8, 12})
            for (int d : defects) {
                checkScenario<Backend>({seed++, d, 0, 0, pool, vectors},
                                       flagged);
                checkScenario<Backend>({seed++, d, 6, 2, pool, vectors},
                                       flagged);
            }
    // The scenarios must reach both kinds of driven unit, or the
    // comparison would not see them treated as clean.
    EXPECT_GT(flagged.faulty, 0u);
    EXPECT_GT(flagged.cleanBypass, 0u);
}

TEST(BistCleanSkip, MatchesFullProbeSpatial)
{
    checkAllScenarios<Accelerator>();
}

TEST(BistCleanSkip, MatchesFullProbeSystolic)
{
    checkAllScenarios<SystolicBackend>();
}

} // namespace
} // namespace dtann
