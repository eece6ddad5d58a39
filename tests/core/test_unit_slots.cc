/**
 * @file
 * The backends' dense unit-slot table: every pass address resolves
 * its faulty simulation, bypass mux and deviation probe once, when
 * fault or bypass state changes. These tests pin the invalidation
 * rule — a re-injection replaces the simulation a slot points at, a
 * later bypass wins, and the clear operations restore the clean
 * datapath — on both backends. Labelled asan: a slot left pointing
 * at a replaced simulation is a use-after-free.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/accelerator.hh"
#include "core/systolic.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/multiplier.hh"

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

/** Exposes the protected slot table for consistency checks. */
template <class Backend>
struct SlotView : Backend
{
    using Backend::Backend;
    using HardwareBackend::slot;
};

/** Raw product a multiplier simulation returns for (w, x). */
Fix16
simProduct(OperatorSim &sim, Fix16 w, Fix16 x)
{
    uint64_t in = static_cast<uint64_t>(w.bits()) |
        (static_cast<uint64_t>(x.bits()) << 16);
    return Fix16::fromRaw(static_cast<int16_t>(
        (sim.apply(in) >> Fix16::fracBits) & 0xffff));
}

TEST(UnitSlots, ReinjectionRefreshesBothSystolicPassAddresses)
{
    // The second injection into an already-faulty shared PE merges
    // fault sets into a *new* OperatorSim; both pass addresses must
    // follow it. The oracle is a simulation built directly from the
    // same two draws, outside the backend.
    SystolicBackend accel(smallArray(), {12, 4, 3});
    UnitSite out_addr{UnitKind::Multiplier, Layer::Output, 1, 2};
    UnitSite hid_addr{UnitKind::Multiplier, Layer::Hidden, 1, 2};
    const uint64_t seeds[2] = {41, 42};
    const int counts[2] = {2, 3};

    Rng r0(seeds[0]);
    accel.injectDefects(out_addr, counts[0], r0);
    // Exercise the first simulation through both addresses.
    for (int v = 0; v < 20; ++v) {
        Fix16 w = Fix16::fromRaw(static_cast<int16_t>(v * 977 - 9000));
        accel.bistMul(Layer::Output, 1, 2, w, w);
        accel.bistMul(Layer::Hidden, 1, 2, w, w);
    }
    Rng r1(seeds[1]);
    accel.injectDefects(hid_addr, counts[1], r1);
    ASSERT_EQ(accel.faultySites().size(), 1u);

    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, smallArray().faStyle));
    Rng q0(seeds[0]), q1(seeds[1]);
    Injection first = injectTransistorDefects(*nl, counts[0], q0);
    Injection second = injectTransistorDefects(*nl, counts[1], q1);
    Injection merged;
    merged.faults = first.faults;
    merged.faults.merge(second.faults);
    OperatorSim ref(nl, merged, cleanMultiplierSigned(16));
    OperatorSim first_only(nl, first, cleanMultiplierSigned(16));

    Rng rng(5);
    bool differs_from_first = false;
    for (int v = 0; v < 400; ++v) {
        Fix16 w = Fix16::fromRaw(static_cast<int16_t>(rng.nextUint(65536)));
        Fix16 x = Fix16::fromRaw(static_cast<int16_t>(rng.nextUint(65536)));
        Layer pass = v % 2 ? Layer::Output : Layer::Hidden;
        Fix16 want = simProduct(ref, w, x);
        differs_from_first |= simProduct(first_only, w, x) != want;
        ASSERT_EQ(accel.bistMul(pass, 1, 2, w, x), want) << "vector " << v;
    }
    // The test only has teeth if the merge changed behaviour.
    EXPECT_TRUE(differs_from_first);
}

template <class Backend>
void
checkBypassWinsThenClears()
{
    Backend accel(smallArray(), {12, 4, 3});
    Backend clean(smallArray(), {12, 4, 3});
    MlpTopology topo{12, 4, 3};
    MlpWeights w(topo);
    Rng wr(3);
    w.initRandom(wr, 2.0);

    // Defects on a multiplier, an adder stage and an activation.
    std::vector<UnitSite> sites = {
        {UnitKind::Multiplier, Layer::Hidden, 1, 4},
        {UnitKind::AdderStage, Layer::Output, 0, 1},
        {UnitKind::Activation, Layer::Hidden, 2, 0},
    };
    Rng rng(77);
    for (const UnitSite &s : sites)
        accel.injectDefects(s, 4, rng);

    // A bypass applied after the inject wins: the product is gated
    // to zero whatever the simulation would return.
    accel.bypassUnit(sites[0]);
    for (int v = 0; v < 50; ++v) {
        Fix16 a = Fix16::fromRaw(static_cast<int16_t>(rng.nextUint(65536)));
        EXPECT_EQ(accel.bistMul(Layer::Hidden, 1, 4, a, a), Fix16());
    }
    EXPECT_TRUE(accel.isBypassed(sites[0]));
    EXPECT_TRUE(accel.isFaulty(sites[0]));

    accel.setWeights(w);
    clean.setWeights(w);
    std::vector<double> in(12);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 0.1 * static_cast<double>(i) - 0.4;
    Activations want = clean.forward(in);

    // Clearing the bypasses re-exposes the faulty simulation; the
    // bypass must not have left a stale "clean" slot behind.
    accel.clearBypasses();
    EXPECT_FALSE(accel.isBypassed(sites[0]));
    uint64_t before = accel.probe(sites[0]).amplitude.count();
    accel.bistMul(Layer::Hidden, 1, 4, Fix16::fromDouble(0.5),
                  Fix16::fromDouble(0.5));
    EXPECT_EQ(accel.probe(sites[0]).amplitude.count(), before + 1);

    // Clearing the defects (and reloading the weights through the
    // now-clean latches) restores the clean datapath bit for bit.
    accel.bypassUnit(sites[1]);
    accel.clearDefects();
    accel.clearBypasses();
    accel.setWeights(w);
    Activations got = accel.forward(in);
    EXPECT_EQ(got.hidden(), want.hidden());
    EXPECT_EQ(got.output(), want.output());
    for (const UnitSite &s : sites) {
        EXPECT_FALSE(accel.isFaulty(s));
        EXPECT_EQ(accel.probe(s).amplitude.count(), 0u);
    }
    EXPECT_EQ(accel.simCounters().scalarVectors, 0u);
}

TEST(UnitSlots, SpatialBypassWinsAndClearsRestoreClean)
{
    checkBypassWinsThenClears<SpatialBackend>();
}

TEST(UnitSlots, SystolicBypassWinsAndClearsRestoreClean)
{
    checkBypassWinsThenClears<SystolicBackend>();
}

template <class Backend>
void
checkSlotsMatchContainers()
{
    // After any sequence of injections and bypasses, every pass
    // address's slot agrees with the isFaulty()/isBypassed() ground
    // truth (which folds through physicalSite() on every query).
    AcceleratorConfig cfg = smallArray();
    SlotView<Backend> accel(cfg, {12, 4, 3});
    Rng rng(99);
    auto check = [&](const char *when) {
        for (UnitKind kind : {UnitKind::WeightLatch, UnitKind::Multiplier,
                              UnitKind::AdderStage, UnitKind::Activation}) {
            for (Layer layer : {Layer::Hidden, Layer::Output}) {
                int neurons = layer == Layer::Hidden ? cfg.hidden
                                                     : cfg.outputs;
                int fanin = layer == Layer::Hidden ? cfg.inputs
                                                   : cfg.hidden;
                int indices = kind == UnitKind::Activation ? 1
                    : kind == UnitKind::AdderStage        ? fanin
                                                          : fanin + 1;
                for (int n = 0; n < neurons; ++n) {
                    for (int i = 0; i < indices; ++i) {
                        UnitSite pass{kind, layer, n, i};
                        const auto &s = accel.slot(kind, layer, n, i);
                        ASSERT_EQ(s.sim != nullptr, accel.isFaulty(pass))
                            << when << " " << pass.describe();
                        ASSERT_EQ(s.probe != nullptr, s.sim != nullptr)
                            << when << " " << pass.describe();
                        ASSERT_EQ(s.bypassed, accel.isBypassed(pass))
                            << when << " " << pass.describe();
                    }
                }
            }
        }
    };
    std::vector<UnitSite> pool = accel.enumerateSites(SitePool::all());
    for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 12; ++k) {
            const UnitSite &s = pool[rng.nextUint(pool.size())];
            if (rng.nextBool(0.7))
                accel.injectDefects(s, 1, rng);
            else
                accel.bypassUnit(s);
        }
        check("after inject/bypass");
        if (round % 2) {
            accel.clearBypasses();
            check("after clearBypasses");
        } else {
            accel.clearDefects();
            check("after clearDefects");
        }
    }
}

TEST(UnitSlots, SpatialSlotsMatchContainers)
{
    checkSlotsMatchContainers<SpatialBackend>();
}

TEST(UnitSlots, SystolicSlotsMatchContainers)
{
    checkSlotsMatchContainers<SystolicBackend>();
}

} // namespace
} // namespace dtann
