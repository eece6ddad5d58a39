/**
 * @file
 * Systolic-backend defect semantics: the properties that make the
 * weight-stationary grid a genuinely different defect target than
 * the spatial array — shared PEs serve both passes, pass addresses
 * fold onto canonical grid sites, and the batched forward stays
 * bit-identical to the per-row schedule even with stateful faults.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"
#include "core/systolic.hh"

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

TEST(Systolic, LogicalSubsetMatchesSpatialBitExact)
{
    // A task smaller than the grid maps onto its top-left corner and
    // still agrees with the spatial array bit for bit.
    MlpTopology topo{5, 3, 2};
    SpatialBackend spatial(smallArray(), topo);
    SystolicBackend systolic(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(3);
    w.initRandom(rng, 2.0);
    spatial.setWeights(w);
    systolic.setWeights(w);
    for (int t = 0; t < 50; ++t) {
        std::vector<double> in(5);
        for (double &v : in)
            v = rng.nextDouble();
        Activations a = spatial.forward(in);
        Activations b = systolic.forward(in);
        EXPECT_EQ(a.hidden(), b.hidden());
        EXPECT_EQ(a.output(), b.output());
    }
}

TEST(Systolic, PassAddressFoldsToTheSharedPe)
{
    // Injecting through the output-pass address of a shared PE must
    // hit the same physical unit as its Hidden-canonical address.
    SystolicBackend accel(smallArray(), {12, 4, 3});
    Rng rng(7);
    UnitSite output_addr{UnitKind::Multiplier, Layer::Output, 1, 2};
    UnitSite canonical{UnitKind::Multiplier, Layer::Hidden, 1, 2};
    accel.injectDefects(output_addr, 3, rng);
    EXPECT_TRUE(accel.isFaulty(canonical));
    EXPECT_TRUE(accel.isFaulty(output_addr));
    ASSERT_EQ(accel.faultySites().size(), 1u);
    EXPECT_EQ(accel.faultySites()[0], canonical);
    accel.clearDefects();
    EXPECT_FALSE(accel.isFaulty(canonical));
}

TEST(Systolic, SharedPeProbeMergesBothPassStreams)
{
    // PE (row 2, column 1) multiplies for hidden neuron 1 (synapse
    // 2) AND output neuron 1 (synapse 2): one forward routes two
    // operations through its faulty simulation, and probe() reports
    // the merged two-pass stream under either pass address.
    MlpTopology topo{12, 4, 3};
    SystolicBackend accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(13);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    UnitSite site{UnitKind::Multiplier, Layer::Hidden, 1, 2};
    accel.injectDefects(site, 10, rng);

    std::vector<double> in(12, 0.5);
    accel.forward(in);
    EXPECT_EQ(accel.probe(site).amplitude.count(), 2u);
    UnitSite output_addr{UnitKind::Multiplier, Layer::Output, 1, 2};
    EXPECT_EQ(accel.probe(output_addr).amplitude.count(), 2u);

    // A PE outside the output pass's reach (row 7 > hidden fan-in)
    // serves only the hidden pass: one use per forward.
    accel.clearDefects();
    UnitSite hidden_only{UnitKind::Multiplier, Layer::Hidden, 1, 7};
    accel.injectDefects(hidden_only, 10, rng);
    accel.forward(in);
    EXPECT_EQ(accel.probe(hidden_only).amplitude.count(), 1u);
}

TEST(Systolic, FaultyLatchIsReloadedByBothPasses)
{
    // The stationary weight latch at PE (row 3, column 2) stores a
    // hidden-pass weight and is reloaded with an output-pass weight:
    // setWeights() drives two stores through its faulty simulation.
    MlpTopology topo{12, 4, 3};
    SystolicBackend accel(smallArray(), topo);
    Rng rng(11);
    UnitSite site{UnitKind::WeightLatch, Layer::Hidden, 2, 3};
    accel.injectDefects(site, 20, rng);
    DeepWeights w(topo);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);
    EXPECT_EQ(accel.probe(site).amplitude.count(), 2u);
}

TEST(Systolic, BypassedColumnFootSilencesBothPasses)
{
    // One activation unit sits at each column foot and serves both
    // passes: bypassing it (constant-zero output) silences hidden
    // neuron 2 AND output neuron 2 — the spatial array would need
    // two bypasses for the same effect.
    MlpTopology topo{12, 4, 3};
    SystolicBackend accel(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(17);
    w.initRandom(rng, 2.0);
    accel.setWeights(w);

    std::vector<double> in(12, 0.5);
    Activations clean = accel.forward(in);
    EXPECT_NE(clean.hidden()[2], 0.0);
    EXPECT_NE(clean.output()[2], 0.0);

    accel.bypassUnit({UnitKind::Activation, Layer::Hidden, 2, 0});
    Activations gated = accel.forward(in);
    EXPECT_EQ(gated.hidden()[2], 0.0);
    EXPECT_EQ(gated.output()[2], 0.0);

    // The output-pass address folds onto the same physical foot.
    accel.clearBypasses();
    accel.bypassUnit({UnitKind::Activation, Layer::Output, 2, 0});
    Activations refolded = accel.forward(in);
    EXPECT_EQ(refolded.hidden(), gated.hidden());
    EXPECT_EQ(refolded.output(), gated.output());
}

TEST(Systolic, FaultyForwardBatchMatchesPerRowForward)
{
    // Two grids with identical defects, one driven row by row and
    // one through forwardBatch. Shared PEs make the chunked batch
    // schedule reorder pass interleaving, so the backend must fall
    // back to the exact per-row schedule whenever a stateful
    // simulation is present — either way, outputs and per-site
    // probe statistics must be bit-identical.
    MlpTopology topo{12, 4, 3};
    SystolicBackend a(smallArray(), topo);
    SystolicBackend b(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(23);
    w.initRandom(rng, 2.0);

    Rng inj_a(31), inj_b(31);
    DefectInjector ia(a, SitePool::all());
    ia.inject(6, inj_a);
    DefectInjector ib(b, SitePool::all());
    ib.inject(6, inj_b);
    ASSERT_EQ(a.faultySites(), b.faultySites());
    a.setWeights(w);
    b.setWeights(w);

    std::vector<std::vector<double>> rows(90, std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> batch = b.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations ref = a.forward(rows[i]);
        EXPECT_EQ(ref.hidden(), batch[i].hidden()) << "row " << i;
        EXPECT_EQ(ref.output(), batch[i].output()) << "row " << i;
    }
    for (const UnitSite &s : a.faultySites()) {
        const DeviationProbe &pa = a.probe(s);
        const DeviationProbe &pb = b.probe(s);
        EXPECT_EQ(pa.amplitude.count(), pb.amplitude.count());
        EXPECT_EQ(pa.amplitude.mean(), pb.amplitude.mean());
        EXPECT_EQ(pa.amplitude.stddev(), pb.amplitude.stddev());
    }
}

TEST(Systolic, PureFaultBatchUsesTheLanePath)
{
    // With only state-free faults the batched forward takes the
    // wide-lane path (and still matches per-row evaluation). The
    // injection seed is pinned to a draw whose adder faults are
    // pure, so the lane path is actually covered.
    MlpTopology topo{12, 4, 3};
    SystolicBackend a(smallArray(), topo);
    SystolicBackend b(smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(29);
    w.initRandom(rng, 2.0);

    Rng inj_a(30), inj_b(30);
    UnitSite site{UnitKind::AdderStage, Layer::Hidden, 0, 1};
    a.injectDefects(site, 2, inj_a);
    b.injectDefects(site, 2, inj_b);
    a.setWeights(w);
    b.setWeights(w);
    ASSERT_TRUE(b.batchPure());

    std::vector<std::vector<double>> rows(70, std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> batch = b.forwardBatch(rows);
    for (size_t i = 0; i < rows.size(); ++i) {
        Activations ref = a.forward(rows[i]);
        EXPECT_EQ(ref.hidden(), batch[i].hidden()) << "row " << i;
        EXPECT_EQ(ref.output(), batch[i].output()) << "row " << i;
    }
    // The lane path actually ran: sweeps were provisioned.
    EXPECT_GT(b.simCounters().batchSweeps, 0u);
}

} // namespace
} // namespace dtann
