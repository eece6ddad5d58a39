/**
 * @file
 * Cross-backend differential suite for the HardwareBackend
 * boundary: both microarchitectures must agree bit-exactly on the
 * defect-free forward pass of every paper task (the property that
 * makes defect campaigns comparable across backends), and the
 * backend naming / construction / enumeration plumbing must hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "ann/fixed_mlp.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"
#include "core/systolic.hh"
#include "data/synth_uci.hh"
#include "mitigate/mitigator.hh"

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

TEST(Backend, NamesRoundTrip)
{
    EXPECT_STREQ(backendName(BackendKind::Spatial), "spatial");
    EXPECT_STREQ(backendName(BackendKind::Systolic), "systolic");
    BackendKind kind;
    EXPECT_TRUE(backendFromName("spatial", kind));
    EXPECT_EQ(kind, BackendKind::Spatial);
    EXPECT_TRUE(backendFromName("systolic", kind));
    EXPECT_EQ(kind, BackendKind::Systolic);
    EXPECT_FALSE(backendFromName("tpu", kind));
    EXPECT_FALSE(backendFromName("", kind));
    // The error-message name list covers exactly the valid names.
    EXPECT_EQ(backendNameList(), "spatial, systolic");
}

TEST(Backend, MakeBackendConstructsTheRequestedKind)
{
    auto spatial =
        makeBackend(BackendKind::Spatial, smallArray(), {12, 4, 3});
    EXPECT_EQ(spatial->backendKind(), BackendKind::Spatial);
    auto systolic =
        makeBackend(BackendKind::Systolic, smallArray(), {12, 4, 3});
    EXPECT_EQ(systolic->backendKind(), BackendKind::Systolic);
    // The legacy name keeps meaning the paper's microarchitecture.
    static_assert(std::is_same_v<Accelerator, SpatialBackend>);
}

TEST(Backend, CleanForwardAgreesAcrossBackendsOnAllPaperTasks)
{
    // The acceptance differential: for every task of the paper's
    // benchmark suite, the spatial array and the systolic grid
    // produce bit-identical defect-free activations (and both match
    // the fixed-point reference network).
    AcceleratorConfig cfg; // the paper's 90-10-10 array
    for (const UciTaskSpec &task : uciTasks()) {
        ASSERT_LE(task.attributes, cfg.inputs) << task.name;
        ASSERT_LE(task.classes, cfg.outputs) << task.name;
        // Tasks wider than the array run through the time-mux
        // wrapper in the campaigns; the direct-mapped differential
        // clamps to what fits.
        MlpTopology topo{task.attributes,
                         std::min(task.hidden, cfg.hidden),
                         task.classes};
        auto spatial = makeBackend(BackendKind::Spatial, cfg, topo);
        auto systolic = makeBackend(BackendKind::Systolic, cfg, topo);
        FixedMlp ref(topo);
        DeepWeights w(topo);
        Rng rng(101);
        w.initRandom(rng, 2.0);
        spatial->setWeights(w);
        systolic->setWeights(w);
        ref.setWeights(w);
        for (int t = 0; t < 10; ++t) {
            std::vector<double> in(
                static_cast<size_t>(task.attributes));
            for (double &v : in)
                v = rng.nextDouble();
            Activations a = spatial->forward(in);
            Activations b = systolic->forward(in);
            Activations c = ref.forward(in);
            EXPECT_EQ(a.hidden(), b.hidden()) << task.name;
            EXPECT_EQ(a.output(), b.output()) << task.name;
            EXPECT_EQ(a.output(), c.output()) << task.name;
        }
    }
}

TEST(Backend, CleanForwardBatchAgreesAcrossBackends)
{
    MlpTopology topo{12, 4, 3};
    auto spatial = makeBackend(BackendKind::Spatial, smallArray(), topo);
    auto systolic =
        makeBackend(BackendKind::Systolic, smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(103);
    w.initRandom(rng, 2.0);
    spatial->setWeights(w);
    systolic->setWeights(w);

    // 70 rows: one full 64-lane sweep plus a ragged remainder.
    std::vector<std::vector<double>> rows(70, std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> a = spatial->forwardBatch(rows);
    std::vector<Activations> b = systolic->forwardBatch(rows);
    ASSERT_EQ(a.size(), rows.size());
    ASSERT_EQ(b.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(a[i].hidden(), b[i].hidden()) << "row " << i;
        EXPECT_EQ(a[i].output(), b[i].output()) << "row " << i;
    }
}

TEST(Backend, SpatialEnumerationMatchesFreeFunction)
{
    // SpatialBackend::enumerateSites is the refactored home of the
    // original free enumeration; both must list the same population
    // in the same order (campaign stream compatibility).
    SpatialBackend accel(smallArray(), {12, 4, 3});
    for (const SitePool &pool :
         {SitePool::all(), SitePool::inputAndHidden(),
          SitePool::outputCritical()}) {
        EXPECT_EQ(accel.enumerateSites(pool),
                  enumerateSites(accel.config(), pool));
    }
}

TEST(Backend, SystolicGridGeometryAndEnumeration)
{
    SystolicBackend accel(smallArray(), {12, 4, 3});
    // rows = max(inputs, hidden) + 1 (bias row), cols = max(hidden,
    // outputs).
    EXPECT_EQ(accel.gridRows(), 13);
    EXPECT_EQ(accel.gridCols(), 4);
    EXPECT_EQ(accel.unitCount(UnitKind::WeightLatch), 13 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::Multiplier), 13 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::AdderStage), 12 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::Activation), 4);

    // Full-pool enumeration: every grid unit some pass uses, once,
    // at its Hidden-canonical physical address.
    std::vector<UnitSite> sites = accel.enumerateSites(SitePool::all());
    std::set<UnitSite> unique(sites.begin(), sites.end());
    EXPECT_EQ(unique.size(), sites.size());
    for (const UnitSite &s : sites) {
        EXPECT_EQ(s.layer, Layer::Hidden) << s.describe();
        EXPECT_LT(s.neuron, accel.gridCols()) << s.describe();
        EXPECT_LT(s.index, accel.gridRows()) << s.describe();
    }
    // The hidden pass uses all 13 rows of its 4 columns; the output
    // pass only adds sites the hidden pass already covers (3 of the
    // 4 columns, rows 0..4), so the count is the hidden pass's:
    // 13*4 latches + 13*4 mults + 12*4 adders + 4 activations.
    EXPECT_EQ(sites.size(), 13u * 4 + 13u * 4 + 12u * 4 + 4);

    // The output-critical pool reaches only what the hidden->output
    // schedule touches: adder stages 0..3 and the activation foot
    // of columns 0..2.
    std::vector<UnitSite> critical =
        accel.enumerateSites(SitePool::outputCritical());
    EXPECT_EQ(critical.size(), 4u * 3 + 3);
    for (const UnitSite &s : critical)
        EXPECT_TRUE(s.kind == UnitKind::AdderStage ||
                    s.kind == UnitKind::Activation)
            << s.describe();
}

TEST(Backend, StrategySupportMatrix)
{
    // Spare-row remapping and critical replication assume the
    // spatial array's dedicated spare rows; everything else works
    // on any backend.
    for (Strategy s :
         {Strategy::NoOp, Strategy::RetrainOnly, Strategy::BypassFaulty,
          Strategy::RemapToSpares, Strategy::ClampActivations,
          Strategy::ReplicateCritical})
        EXPECT_TRUE(strategySupported(s, BackendKind::Spatial));
    EXPECT_FALSE(
        strategySupported(Strategy::RemapToSpares, BackendKind::Systolic));
    EXPECT_FALSE(strategySupported(Strategy::ReplicateCritical,
                                   BackendKind::Systolic));
    EXPECT_TRUE(strategySupported(Strategy::NoOp, BackendKind::Systolic));
    EXPECT_TRUE(
        strategySupported(Strategy::RetrainOnly, BackendKind::Systolic));
    EXPECT_TRUE(
        strategySupported(Strategy::BypassFaulty, BackendKind::Systolic));
    EXPECT_TRUE(strategySupported(Strategy::ClampActivations,
                                  BackendKind::Systolic));
}

} // namespace
} // namespace dtann
