/**
 * @file
 * Differential suite for the native clean-unit datapath: both
 * backends must match their all-units reference chain
 * (reference_datapath.hh) per row and at lane widths 64, 256 and
 * 512 — activations, readable hidden sums, every deviation probe's
 * statistics, clamp hits and the simulation counters — on arrays
 * whose faulty, bypassed and clamped units sit where the native
 * rule's two conditions matter:
 *
 *  - a bypassed multiplier or adder stage at a zero-weight site;
 *  - a faulty adder stage after a clean zero-weight multiplier;
 *  - a faulty multiplier with a zero weight;
 *  - a faulty latch that stores a non-zero word at a padding site;
 *  - faulty latches that store non-zero words on padding hidden
 *    neuron 3 and past the output layer's logical fan-in (the run
 *    plan's non-zero bound);
 *  - activation clamps on both layers;
 *  - clamp windows that exclude sigmoid(0) = 0.5, so the padding
 *    neurons (constant neurons: every unit clean, no non-zero word
 *    below the bias) add one clamp hit per row;
 *  - faulty latches that store non-zero bias words on padding
 *    neurons of both layers, so a constant neuron's output is not
 *    sigmoid(0).
 *
 * A second check holds the cached run plan to the unit table:
 * defects injected, bypassed and cleared after an install, each
 * followed by a forward with no re-install. A third runs clean
 * neurons (one dot product per row) at every run bound from 1 to
 * a full 20-word fan-in, the full one also forced by faulty latches
 * just below the bias.
 *
 * The 8-3-2 task on the 12-4-3 array leaves padding sites (zero
 * weights) in both layers, and two used synapses get exact zero
 * weights as well. Labelled asan and ubsan.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>

#include "core/accelerator.hh"
#include "core/systolic.hh"
#include "rtl/fault_inject.hh"
#include "reference_datapath.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

const MlpTopology kLogical{8, 3, 2};

/** Random logical weights with exact zeros at two used synapses. */
DeepWeights
weightsFor(uint64_t seed)
{
    DeepWeights w(kLogical);
    Rng rng(seed);
    w.initRandom(rng, 1.5);
    w.at(0, 0, 2) = 0.0; // folded in by hidden adder stage 1
    w.at(1, 1, 1) = 0.0; // folded in by output adder stage 0
    return w;
}

std::vector<std::vector<double>>
randomRows(size_t n, Rng &rng)
{
    std::vector<std::vector<double>> rows(n);
    for (auto &row : rows) {
        row.resize(static_cast<size_t>(kLogical.inputs));
        for (double &v : row)
            v = rng.nextDouble();
    }
    return rows;
}

/**
 * The first draw at or after @p seed whose @p count defects make the
 * latch at @p site store a non-zero word when zero is written into
 * it from reset.
 */
uint64_t
nonZeroLatchSeed(BackendKind kind, const UnitSite &site, int count,
                 uint64_t seed, const AcceleratorConfig &cfg = smallArray(),
                 const MlpTopology &logical = kLogical)
{
    for (uint64_t s = seed; s < seed + 2000; ++s) {
        auto b = makeBackend(kind, cfg, logical);
        Rng rng(s);
        b->injectDefects(site, count, rng);
        if (b->bistLatchStore(site.layer, site.neuron, site.index,
                              Fix16()) != Fix16())
            return s;
    }
    ADD_FAILURE() << "no draw stores a non-zero word at " << site.describe();
    return seed;
}

/**
 * Inject 3 defects at each of @p sites, in order, from one stream.
 * Even @p seed values move to the first stream at or after it whose
 * draws are all batchable: the systolic batch takes the lane path
 * only then.
 */
void
injectAll(HardwareBackend &b, const std::vector<UnitSite> &sites,
          uint64_t seed)
{
    auto inject = [&](HardwareBackend &into, uint64_t s) {
        Rng rng(s);
        for (const UnitSite &site : sites)
            into.injectDefects(site, 3, rng);
    };
    auto stateless = [&](uint64_t s) {
        // The same draws injectDefects() makes, site by site.
        Rng rng(s);
        for (const UnitSite &site : sites)
            if (!injectTransistorDefects(b.unitNetlist(site.kind), 3, rng)
                     .faults.isStateless())
                return false;
        return true;
    };
    if (seed % 2 == 0) {
        uint64_t s = seed * 100;
        while (!stateless(s) && s < seed * 100 + 2000)
            ++s;
        seed = s;
    }
    inject(b, seed);
}

struct Scenario
{
    const char *name;
    std::function<void(HardwareBackend &, uint64_t)> setup;
};

std::vector<Scenario>
scenarios()
{
    return {
        {"bypass_zero_weight",
         [](HardwareBackend &b, uint64_t) {
             // Padding input 9; the stage folding padding synapse
             // 10; the stage folding zero-weight synapse 2; a
             // zero-weight output multiplier.
             b.bypassUnit({UnitKind::Multiplier, Layer::Hidden, 1, 9});
             b.bypassUnit({UnitKind::AdderStage, Layer::Hidden, 2, 9});
             b.bypassUnit({UnitKind::AdderStage, Layer::Hidden, 0, 1});
             b.bypassUnit({UnitKind::Multiplier, Layer::Output, 1, 1});
         }},
        {"faulty_adder_after_zero_mult",
         [](HardwareBackend &b, uint64_t seed) {
             // Stages folding padding synapse 10 and the zero-weight
             // synapses 2 (hidden) and 1 (output).
             injectAll(b,
                       {{UnitKind::AdderStage, Layer::Hidden, 0, 9},
                        {UnitKind::AdderStage, Layer::Hidden, 0, 1},
                        {UnitKind::AdderStage, Layer::Output, 1, 0}},
                       seed);
         }},
        {"faulty_mult_zero_weight",
         [](HardwareBackend &b, uint64_t seed) {
             injectAll(b,
                       {{UnitKind::Multiplier, Layer::Hidden, 1, 10},
                        {UnitKind::Multiplier, Layer::Hidden, 0, 2},
                        {UnitKind::Multiplier, Layer::Output, 1, 1}},
                       seed);
         }},
        {"faulty_latch_padding",
         [](HardwareBackend &b, uint64_t seed) {
             UnitSite site{UnitKind::WeightLatch, Layer::Hidden, 2, 11};
             Rng rng(nonZeroLatchSeed(b.backendKind(), site, 3,
                                      seed * 100));
             b.injectDefects(site, 3, rng);
         }},
        {"faulty_latch_padding_neuron",
         [](HardwareBackend &b, uint64_t seed) {
             // Padding hidden neuron 3 has no used word, so only its
             // faulty latch 5 lifts the row's bound. Output latch 3
             // lies past the output layer's logical fan-in and
             // weighs neuron 3's activation.
             for (UnitSite site :
                  {UnitSite{UnitKind::WeightLatch, Layer::Hidden, 3, 5},
                   UnitSite{UnitKind::WeightLatch, Layer::Output, 0, 3}}) {
                 Rng rng(nonZeroLatchSeed(b.backendKind(), site, 3,
                                          seed * 100));
                 b.injectDefects(site, 3, rng);
             }
         }},
        {"clamps",
         [](HardwareBackend &b, uint64_t seed) {
             // A padding stage and the output bias multiplier.
             injectAll(b,
                       {{UnitKind::AdderStage, Layer::Hidden, 1, 9},
                        {UnitKind::Multiplier, Layer::Output, 0, 4}},
                       seed);
             b.setActivationClamp(Layer::Hidden, Fix16::fromDouble(0.3),
                                  Fix16::fromDouble(0.7));
             b.setActivationClamp(Layer::Output, Fix16::fromDouble(0.35),
                                  Fix16::fromDouble(0.65));
         }},
        {"clamps_exclude_half",
         [](HardwareBackend &b, uint64_t seed) {
             injectAll(b, {{UnitKind::Multiplier, Layer::Hidden, 0, 4}},
                       seed);
             b.setActivationClamp(Layer::Hidden, Fix16::fromDouble(0.55),
                                  Fix16::fromDouble(0.9));
             b.setActivationClamp(Layer::Output, Fix16::fromDouble(0.1),
                                  Fix16::fromDouble(0.45));
         }},
        {"faulty_latch_padding_bias",
         [](HardwareBackend &b, uint64_t seed) {
             // The bias latches of padding hidden neuron 3 and
             // padding output neuron 2.
             for (UnitSite site :
                  {UnitSite{UnitKind::WeightLatch, Layer::Hidden, 3, 12},
                   UnitSite{UnitKind::WeightLatch, Layer::Output, 2, 4}}) {
                 Rng rng(nonZeroLatchSeed(b.backendKind(), site, 3,
                                          seed * 100));
                 b.injectDefects(site, 3, rng);
             }
         }},
    };
}

/** @p Backend with its per-lane hidden sums readable. */
template <class Backend>
class WithSums : public Backend
{
  public:
    using Backend::Backend;

    const std::vector<Acc24> &sums() const { return this->hidSumsLanes; }
};

/** The pre-activation sums of both twins' last hidden pass. */
template <class Ref, class Got>
void
expectSameSums(const Ref &ref, const Got &got)
{
    // Every run, one row or a batch, leaves its last chunk's per-lane
    // sums behind, so the comparison cannot pass vacuously.
    EXPECT_FALSE(ref.sums().empty());
    EXPECT_TRUE(got.sums() == ref.sums());
}

/** Probes, counters and clamp hits after a run. */
void
expectSameUnits(HardwareBackend &ref, HardwareBackend &got)
{
    SimCounters rc = ref.simCounters(), gc = got.simCounters();
    EXPECT_EQ(gc.toJson(), rc.toJson());
    EXPECT_EQ(gc.memoHits, rc.memoHits);
    EXPECT_EQ(got.clampHits(), ref.clampHits());
    ASSERT_EQ(got.faultySites(), ref.faultySites());
    for (const UnitSite &site : ref.faultySites()) {
        const RunningStat &a = ref.probe(site).amplitude;
        const RunningStat &b = got.probe(site).amplitude;
        SCOPED_TRACE(site.describe());
        EXPECT_EQ(b.count(), a.count());
        EXPECT_EQ(b.mean(), a.mean());
        EXPECT_EQ(b.variance(), a.variance());
        EXPECT_EQ(b.min(), a.min());
        EXPECT_EQ(b.max(), a.max());
    }
}

/** DTANN_LANES=@p lanes for one scope (left unset for 0). */
struct LaneWidth
{
    explicit LaneWidth(size_t lanes)
    {
        if (lanes)
            setenv("DTANN_LANES", std::to_string(lanes).c_str(), 1);
    }
    ~LaneWidth() { unsetenv("DTANN_LANES"); }
};

/**
 * Forward @p rows through both twins, one by one (@p lanes == 0) or
 * as one forwardBatch() at the lane width in force, and compare the
 * activations and the hidden sums.
 */
template <class Ref, class Got>
void
expectSameForward(Ref &ref, Got &got,
                  const std::vector<std::vector<double>> &rows,
                  size_t lanes)
{
    if (lanes) {
        auto want = ref.forwardBatch(rows);
        auto have = got.forwardBatch(rows);
        ASSERT_EQ(have.size(), want.size());
        for (size_t r = 0; r < want.size(); ++r)
            ASSERT_EQ(have[r].layers, want[r].layers) << "row " << r;
        expectSameSums(ref, got);
    } else {
        for (size_t r = 0; r < rows.size(); ++r) {
            ASSERT_EQ(got.forward(rows[r]).layers,
                      ref.forward(rows[r]).layers)
                << "row " << r;
            expectSameSums(ref, got);
        }
    }
}

/**
 * Run @p sc on a reference/native twin pair: two weight loads, each
 * followed by the rows one by one (@p lanes == 0) or as one
 * forwardBatch() at DTANN_LANES=@p lanes. @p lane_path is set when
 * the batch ran on the lane datapath (the systolic backend takes
 * the row loop unless every faulty unit is batchable).
 */
template <class Backend>
void
checkScenario(const Scenario &sc, uint64_t seed, size_t lanes,
              bool &lane_path)
{
    LaneWidth width(lanes);
    WithSums<ReferenceDatapath<Backend>> ref(smallArray(), kLogical);
    WithSums<Backend> got(smallArray(), kLogical);
    sc.setup(ref, seed);
    sc.setup(got, seed);
    Rng rr(seed * 7 + 1);
    // A full plane plus a partial one.
    auto rows = randomRows(lanes ? lanes + 37 : 40, rr);
    for (uint64_t load : {seed, seed + 100}) {
        DeepWeights w = weightsFor(load);
        ref.setWeights(w);
        got.setWeights(w);
        expectSameForward(ref, got, rows, lanes);
        if (testing::Test::HasFatalFailure())
            return;
    }
    expectSameUnits(ref, got);
    lane_path = lanes && (got.backendKind() == BackendKind::Spatial ||
                          got.batchPure());
}

template <class Backend>
void
checkAllScenarios()
{
    for (const Scenario &sc : scenarios()) {
        int lane_runs = 0;
        for (uint64_t seed : {1, 2, 3, 4}) {
            for (size_t lanes : {0, 64, 256, 512}) {
                SCOPED_TRACE(std::string(sc.name) + " seed " +
                             std::to_string(seed) + " lanes " +
                             std::to_string(lanes));
                bool lane_path = false;
                checkScenario<Backend>(sc, seed, lanes, lane_path);
                if (testing::Test::HasFatalFailure())
                    return;
                lane_runs += lane_path;
            }
        }
        // Latch faults keep the systolic batch on the row loop.
        if (std::string(sc.name).rfind("faulty_latch", 0) != 0) {
            EXPECT_GT(lane_runs, 0) << sc.name << ": lane path unexercised";
        }
    }
}

/**
 * Change the unit table after an install and forward again with no
 * re-install, on a reference/native twin pair: defects injected (a
 * used multiplier, the stage folding a zero-weight synapse, a
 * padding multiplier), then bypasses, then each clear. The first forward has built the native run plan, so
 * every later one must see the plan rebuilt from the table.
 */
template <class Backend>
void
checkUnitChangesAfterInstall(uint64_t seed, size_t lanes)
{
    LaneWidth width(lanes);
    WithSums<ReferenceDatapath<Backend>> ref(smallArray(), kLogical);
    WithSums<Backend> got(smallArray(), kLogical);
    Rng rr(seed * 7 + 3);
    auto rows = randomRows(lanes ? lanes + 37 : 40, rr);
    DeepWeights w = weightsFor(seed);
    ref.setWeights(w);
    got.setWeights(w);
    std::vector<Scenario> steps = {
        {"installed", [](HardwareBackend &, uint64_t) {}},
        {"injected",
         [](HardwareBackend &b, uint64_t s) {
             injectAll(b,
                       {{UnitKind::Multiplier, Layer::Hidden, 1, 3},
                        {UnitKind::AdderStage, Layer::Hidden, 0, 1},
                        {UnitKind::Multiplier, Layer::Output, 0, 3}},
                       s);
         }},
        {"bypassed",
         [](HardwareBackend &b, uint64_t) {
             b.bypassUnit({UnitKind::Multiplier, Layer::Hidden, 2, 4});
             b.bypassUnit({UnitKind::AdderStage, Layer::Output, 1, 1});
         }},
        {"defects_cleared",
         [](HardwareBackend &b, uint64_t) { b.clearDefects(); }},
        {"bypasses_cleared",
         [](HardwareBackend &b, uint64_t) { b.clearBypasses(); }},
    };
    for (const Scenario &step : steps) {
        SCOPED_TRACE(step.name);
        step.setup(ref, seed);
        step.setup(got, seed);
        expectSameForward(ref, got, rows, lanes);
        if (testing::Test::HasFatalFailure())
            return;
        expectSameUnits(ref, got);
    }
}

template <class Backend>
void
checkAllUnitChanges()
{
    for (uint64_t seed : {1, 2, 3, 4}) {
        for (size_t lanes : {0, 64, 256, 512}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " lanes " +
                         std::to_string(lanes));
            checkUnitChangesAfterInstall<Backend>(seed, lanes);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

/**
 * Clean neurons (every multiplier, adder stage and activation unit
 * clean, a non-zero word below the bias) against the all-units
 * chain, one row at a time and at 64 lanes, for every task fan-in
 * 1..20 on a 20-input array: run bounds on both sides of the dot
 * kernel's 8-word step. With @p latch_at_end, faulty latches store
 * non-zero words at the last synapse before the bias (index
 * fanin - 1) of a hidden and an output neuron, so those rows'
 * bound is the whole fan-in and the kernel must stop just before
 * the bias word.
 */
template <class Backend>
void
checkCleanNeuronBounds(bool latch_at_end)
{
    AcceleratorConfig cfg;
    cfg.inputs = 20;
    cfg.hidden = 4;
    cfg.outputs = 3;
    for (int fanin = 1; fanin <= cfg.inputs; ++fanin) {
        MlpTopology logical{fanin, 3, 2};
        for (size_t lanes : {0, 64}) {
            SCOPED_TRACE("fanin " + std::to_string(fanin) + " lanes " +
                         std::to_string(lanes));
            LaneWidth width(lanes);
            WithSums<ReferenceDatapath<Backend>> ref(cfg, logical);
            WithSums<Backend> got(cfg, logical);
            if (latch_at_end) {
                for (UnitSite site :
                     {UnitSite{UnitKind::WeightLatch, Layer::Hidden, 1,
                               cfg.inputs - 1},
                      UnitSite{UnitKind::WeightLatch, Layer::Output, 0,
                               cfg.hidden - 1}}) {
                    uint64_t s = nonZeroLatchSeed(got.backendKind(), site,
                                                  3, 500, cfg, logical);
                    Rng r1(s), r2(s);
                    ref.injectDefects(site, 3, r1);
                    got.injectDefects(site, 3, r2);
                }
            }
            DeepWeights w(logical);
            Rng wr(static_cast<uint64_t>(fanin));
            w.initRandom(wr, 1.5);
            ref.setWeights(w);
            got.setWeights(w);
            Rng rr(static_cast<uint64_t>(fanin) + 100);
            std::vector<std::vector<double>> rows(lanes ? lanes : 5);
            for (auto &row : rows) {
                row.resize(static_cast<size_t>(fanin));
                for (double &v : row)
                    v = rr.nextDouble(-1.0, 1.0);
            }
            expectSameForward(ref, got, rows, lanes);
            if (testing::Test::HasFatalFailure())
                return;
            expectSameUnits(ref, got);
        }
    }
}

TEST(CleanDatapath, SpatialCleanNeuronBounds)
{
    checkCleanNeuronBounds<SpatialBackend>(false);
    checkCleanNeuronBounds<SpatialBackend>(true);
}

TEST(CleanDatapath, SystolicCleanNeuronBounds)
{
    checkCleanNeuronBounds<SystolicBackend>(false);
    checkCleanNeuronBounds<SystolicBackend>(true);
}

TEST(CleanDatapath, SpatialMatchesAllUnitsReference)
{
    checkAllScenarios<SpatialBackend>();
}

TEST(CleanDatapath, SystolicMatchesAllUnitsReference)
{
    checkAllScenarios<SystolicBackend>();
}

TEST(CleanDatapath, SpatialRunPlanFollowsUnitChanges)
{
    checkAllUnitChanges<SpatialBackend>();
}

TEST(CleanDatapath, SystolicRunPlanFollowsUnitChanges)
{
    checkAllUnitChanges<SystolicBackend>();
}

} // namespace
} // namespace dtann
