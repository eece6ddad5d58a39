/**
 * @file
 * The backends' unit table: every pass address indexes the physical
 * unit that executes it, which holds the unit's faulty simulation,
 * bypass mux and per-pass deviation probes. These tests pin the
 * table against a test-side record of what was injected and
 * bypassed (a re-injection reaches every pass address, a later
 * bypass wins, the clear operations restore the clean datapath),
 * the ascending site lists and the probe merge, on both backends.
 * Labelled asan: a unit table that outlived a replaced simulation
 * would be a use-after-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>

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

/** Exposes the protected unit table for consistency checks. */
template <class Backend>
struct SlotView : Backend
{
    using Backend::Backend;
    using HardwareBackend::slot;
};

/**
 * The documented fold, kept test-side: the systolic grid runs both
 * passes on the PE at {kind, Hidden, neuron, index}; the spatial
 * array has one unit per pass address.
 */
template <class Backend>
UnitSite
foldedSite(const UnitSite &pass)
{
    if constexpr (std::is_same_v<Backend, SystolicBackend>)
        return {pass.kind, Layer::Hidden, pass.neuron, pass.index};
    return pass;
}

/** Calls @p fn on every pass address of the table: both layers,
 *  max(hidden, outputs) neurons, each kind's widest operand range. */
template <class Fn>
void
forEachPassAddress(const AcceleratorConfig &cfg, Fn fn)
{
    int neurons = std::max(cfg.hidden, cfg.outputs);
    int fanin = std::max(cfg.inputs, cfg.hidden);
    for (UnitKind kind : {UnitKind::WeightLatch, UnitKind::Multiplier,
                          UnitKind::AdderStage, UnitKind::Activation}) {
        int indices = kind == UnitKind::Activation ? 1
            : kind == UnitKind::AdderStage        ? fanin
                                                  : fanin + 1;
        for (Layer layer : {Layer::Hidden, Layer::Output})
            for (int n = 0; n < neurons; ++n)
                for (int i = 0; i < indices; ++i)
                    fn(UnitSite{kind, layer, n, i});
    }
}

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
    DeepWeights w(topo);
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
    // After any sequence of injections, bypasses and clears, every
    // pass address's table entry agrees with a test-side record of
    // the physical sites injected and bypassed, folded by the
    // documented rule; the site lists and the queries read the same.
    AcceleratorConfig cfg = smallArray();
    SlotView<Backend> accel(cfg, {12, 4, 3});
    std::set<UnitSite> faulty, bypassed;
    Rng rng(99);
    auto check = [&](const char *when) {
        forEachPassAddress(cfg, [&](const UnitSite &pass) {
            UnitSite phys = foldedSite<Backend>(pass);
            const auto &s =
                accel.slot(pass.kind, pass.layer, pass.neuron, pass.index);
            ASSERT_EQ(s.sim != nullptr, faulty.count(phys) != 0)
                << when << " " << pass.describe();
            ASSERT_EQ(s.bypassed, bypassed.count(phys) != 0)
                << when << " " << pass.describe();
            ASSERT_EQ(accel.isFaulty(pass), faulty.count(phys) != 0)
                << when << " " << pass.describe();
            ASSERT_EQ(accel.isBypassed(pass), bypassed.count(phys) != 0)
                << when << " " << pass.describe();
        });
        EXPECT_EQ(accel.faultySites(),
                  std::vector<UnitSite>(faulty.begin(), faulty.end()))
            << when;
        EXPECT_EQ(accel.bypassedSites(),
                  std::vector<UnitSite>(bypassed.begin(), bypassed.end()))
            << when;
    };
    std::vector<UnitSite> pool = accel.enumerateSites(SitePool::all());
    for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 12; ++k) {
            const UnitSite &s = pool[rng.nextUint(pool.size())];
            if (rng.nextBool(0.7)) {
                accel.injectDefects(s, 1, rng);
                faulty.insert(foldedSite<Backend>(s));
            } else {
                accel.bypassUnit(s);
                bypassed.insert(foldedSite<Backend>(s));
            }
        }
        // The output-pass address of a unit either pass uses.
        UnitSite out{UnitKind::Multiplier, Layer::Output,
                     static_cast<int>(rng.nextUint(3)),
                     static_cast<int>(rng.nextUint(5))};
        accel.injectDefects(out, 1, rng);
        faulty.insert(foldedSite<Backend>(out));
        check("after inject/bypass");
        if (round % 2) {
            accel.clearBypasses();
            bypassed.clear();
            check("after clearBypasses");
        } else {
            accel.clearDefects();
            faulty.clear();
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

template <class Backend>
void
checkSitesAscending()
{
    Backend accel(smallArray(), {12, 4, 3});
    std::vector<UnitSite> pool = accel.enumerateSites(SitePool::all());
    Rng rng(17);
    rng.shuffle(pool);
    std::set<UnitSite> faulty, bypassed;
    for (size_t k = 0; k < 40; ++k) {
        const UnitSite &s = pool[k];
        if (k % 3) {
            accel.injectDefects(s, 1, rng);
            faulty.insert(s);
        } else {
            accel.bypassUnit(s);
            bypassed.insert(s);
        }
    }
    // Shuffled entry order must not leak into the lists.
    std::vector<UnitSite> entered(pool.begin(), pool.begin() + 40);
    ASSERT_FALSE(std::is_sorted(entered.begin(), entered.end()));
    EXPECT_EQ(accel.faultySites(),
              std::vector<UnitSite>(faulty.begin(), faulty.end()));
    EXPECT_EQ(accel.bypassedSites(),
              std::vector<UnitSite>(bypassed.begin(), bypassed.end()));
}

TEST(UnitSlots, SitesListedInAscendingOrder)
{
    checkSitesAscending<SpatialBackend>();
    checkSitesAscending<SystolicBackend>();
}

void
expectSameStat(const RunningStat &got, const RunningStat &want)
{
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.mean(), want.mean());
    EXPECT_EQ(got.variance(), want.variance());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
}

/**
 * Drives @p vectors scan multiplies through the pass addresses of
 * multiplier (@p neuron, @p index) in a fixed interleaving and
 * records, per pass, the deviation stream a probe must hold.
 */
template <class Backend>
void
scanBothPasses(SlotView<Backend> &accel, int neuron, int index,
               int vectors, RunningStat want[2])
{
    Rng rng(23);
    for (int v = 0; v < vectors; ++v) {
        Layer pass = rng.nextUint(3) ? Layer::Hidden : Layer::Output;
        Fix16 w = Fix16::fromRaw(static_cast<int16_t>(rng.nextUint(65536)));
        Fix16 x = Fix16::fromRaw(static_cast<int16_t>(rng.nextUint(65536)));
        Fix16 got = accel.bistMul(pass, neuron, index, w, x);
        want[static_cast<size_t>(pass)].add(
            std::abs(got.toDouble() - Fix16::hwMul(w, x).toDouble()));
    }
}

TEST(UnitSlots, ProbeMergesPassStreams)
{
    AcceleratorConfig cfg = smallArray();
    {
        // Spatial: two dedicated units, one per pass; each probe is
        // its own pass stream bit for bit.
        SlotView<SpatialBackend> accel(cfg, {12, 4, 3});
        UnitSite hid{UnitKind::Multiplier, Layer::Hidden, 1, 2};
        UnitSite out{UnitKind::Multiplier, Layer::Output, 1, 2};
        Rng rng(8);
        accel.injectDefects(hid, 4, rng);
        accel.injectDefects(out, 4, rng);
        RunningStat want[2];
        scanBothPasses(accel, 1, 2, 300, want);
        ASSERT_GT(want[0].count(), 0u);
        ASSERT_GT(want[1].count(), 0u);
        ASSERT_GT(want[0].max() + want[1].max(), 0.0);
        expectSameStat(accel.probe(hid).amplitude, want[0]);
        expectSameStat(accel.probe(out).amplitude, want[1]);
        expectSameStat(accel.slot(UnitKind::Multiplier, Layer::Hidden, 1, 2)
                           .probes[0].amplitude,
                       want[0]);
        expectSameStat(accel.slot(UnitKind::Multiplier, Layer::Output, 1, 2)
                           .probes[1].amplitude,
                       want[1]);
    }
    {
        // Systolic: one shared PE; its probe is the hidden stream
        // merged with the output stream, from either address.
        SlotView<SystolicBackend> accel(cfg, {12, 4, 3});
        UnitSite hid{UnitKind::Multiplier, Layer::Hidden, 1, 2};
        UnitSite out{UnitKind::Multiplier, Layer::Output, 1, 2};
        Rng rng(8);
        accel.injectDefects(out, 4, rng);
        RunningStat want[2];
        scanBothPasses(accel, 1, 2, 300, want);
        ASSERT_GT(want[0].count(), 0u);
        ASSERT_GT(want[1].count(), 0u);
        ASSERT_GT(want[0].max() + want[1].max(), 0.0);
        RunningStat merged;
        merged.merge(want[0]);
        merged.merge(want[1]);
        expectSameStat(accel.probe(hid).amplitude, merged);
        expectSameStat(accel.probe(out).amplitude, merged);
        const auto &u = accel.slot(UnitKind::Multiplier, Layer::Output, 1, 2);
        expectSameStat(u.probes[0].amplitude, want[0]);
        expectSameStat(u.probes[1].amplitude, want[1]);
    }
}

} // namespace
} // namespace dtann
