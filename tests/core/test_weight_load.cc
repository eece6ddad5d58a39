/**
 * @file
 * The backends' weight install against the full-array store loop
 * (ReferenceWeightLoad, reference_datapath.hh), on both backends.
 * The reference twin also runs the all-units neuron chain
 * (ReferenceDatapath), so its forwards share no run plan or run
 * bound with the backend under test: a stale bound after a raw row
 * load shows as a forward mismatch.
 *
 * A twin pair runs one random interleaving of the operations that
 * change what an install writes: setWeights();
 * latch injections on logical sites, on padding sites and (through
 * output-pass addresses) on shared systolic PEs; injections into
 * other unit kinds; bypasses; the clears; activation clamp windows
 * (some excluding the padding neurons' constant output); runs of
 * identical installs (the faulty latches' repeated-store record);
 * and, on the spatial array, raw physical row loads that leave
 * non-zero words on padding sites. After every operation the twins
 * must agree on the stored weights, a batch and a one-row forward,
 * the hidden sums, the unit state and deviation probe stream of
 * every pass address, the clamp hits and the simulation counters.
 * Labelled backend, asan and ubsan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "core/accelerator.hh"
#include "core/systolic.hh"
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

/** Exposes the stored words, hidden sums and the unit table. */
template <class Base>
struct View : Base
{
    using Base::Base;
    using HardwareBackend::hidSumsLanes;
    using HardwareBackend::hidW;
    using HardwareBackend::outW;
    using HardwareBackend::slot;
};

/** A cycle of weight sets a few small SGD-like steps apart. */
std::vector<DeepWeights>
weightCycle(MlpTopology topo, Rng &rng)
{
    std::vector<DeepWeights> sets(5, DeepWeights(topo));
    sets[0].initRandom(rng, 1.5);
    for (size_t k = 1; k < sets.size(); ++k) {
        sets[k] = sets[k - 1];
        for (int j = 0; j < topo.hidden; ++j)
            sets[k].at(0, j, static_cast<int>(rng.nextUint(
                static_cast<uint64_t>(topo.inputs + 1)))) += 0.004;
        sets[k].at(1, 0, 0) -= 0.002;
    }
    return sets;
}

int
pick(Rng &rng, int n)
{
    return static_cast<int>(rng.nextUint(static_cast<uint64_t>(n)));
}

/** A latch site the task uses (@p logical) or a padding site. */
UnitSite
latchSite(const AcceleratorConfig &cfg, MlpTopology topo, bool logical,
          Rng &rng)
{
    Layer layer = rng.nextUint(2) ? Layer::Output : Layer::Hidden;
    bool h = layer == Layer::Hidden;
    int neurons = h ? cfg.hidden : cfg.outputs;
    int fanin = h ? cfg.inputs : cfg.hidden;
    int used = h ? topo.hidden : topo.outputs;
    int used_fanin = h ? topo.inputs : topo.hidden;
    if (logical) {
        int i = pick(rng, used_fanin + 1);
        return {UnitKind::WeightLatch, layer, pick(rng, used),
                i == used_fanin ? fanin : i};
    }
    // Either a padding neuron or a padding synapse (the layer has
    // at least one of the two).
    if (used < neurons && (used_fanin == fanin || rng.nextUint(2)))
        return {UnitKind::WeightLatch, layer,
                used + pick(rng, neurons - used), pick(rng, fanin + 1)};
    return {UnitKind::WeightLatch, layer, pick(rng, neurons),
            used_fanin + pick(rng, fanin - used_fanin)};
}

/** The output-pass address of a PE the hidden pass uses as well. */
UnitSite
sharedSite(const AcceleratorConfig &cfg, Rng &rng)
{
    return {UnitKind::WeightLatch, Layer::Output,
            pick(rng, std::min(cfg.hidden, cfg.outputs)),
            pick(rng, cfg.hidden + 1)};
}

/** Any multiplier or adder stage of either pass. */
UnitSite
datapathSite(const AcceleratorConfig &cfg, Rng &rng)
{
    Layer layer = rng.nextUint(2) ? Layer::Output : Layer::Hidden;
    bool h = layer == Layer::Hidden;
    int neurons = h ? cfg.hidden : cfg.outputs;
    int fanin = h ? cfg.inputs : cfg.hidden;
    if (rng.nextUint(2))
        return {UnitKind::Multiplier, layer, pick(rng, neurons),
                pick(rng, fanin + 1)};
    return {UnitKind::AdderStage, layer, pick(rng, neurons),
            pick(rng, fanin)};
}

/** The reference twin of @p Backend: full-array install and
 *  all-units chain. */
template <class Backend>
using Reference = View<ReferenceDatapath<ReferenceWeightLoad<Backend>>>;

template <class Backend>
void
expectSameState(Reference<Backend> &ref, View<Backend> &got)
{
    ASSERT_TRUE(got.hidW == ref.hidW);
    ASSERT_TRUE(got.outW == ref.outW);
    ASSERT_TRUE(got.hidSumsLanes == ref.hidSumsLanes);
    // Every pass address of the table, clean ones included: its
    // unit's state and the address's own probe stream.
    const AcceleratorConfig &cfg = got.config();
    int neurons = std::max(cfg.hidden, cfg.outputs);
    int fanin = std::max(cfg.inputs, cfg.hidden);
    for (UnitKind kind : {UnitKind::WeightLatch, UnitKind::Multiplier,
                          UnitKind::AdderStage, UnitKind::Activation}) {
        int indices = kind == UnitKind::Activation ? 1
            : kind == UnitKind::AdderStage        ? fanin
                                                  : fanin + 1;
        for (Layer layer : {Layer::Hidden, Layer::Output}) {
            for (int n = 0; n < neurons; ++n) {
                for (int i = 0; i < indices; ++i) {
                    const auto &g = got.slot(kind, layer, n, i);
                    const auto &r = ref.slot(kind, layer, n, i);
                    const RunningStat &a =
                        r.probes[static_cast<size_t>(layer)].amplitude;
                    const RunningStat &b =
                        g.probes[static_cast<size_t>(layer)].amplitude;
                    UnitSite at{kind, layer, n, i};
                    ASSERT_EQ(g.sim != nullptr, r.sim != nullptr)
                        << at.describe();
                    ASSERT_EQ(g.bypassed, r.bypassed) << at.describe();
                    ASSERT_EQ(b.count(), a.count()) << at.describe();
                    ASSERT_EQ(b.mean(), a.mean()) << at.describe();
                    ASSERT_EQ(b.variance(), a.variance()) << at.describe();
                    ASSERT_EQ(b.min(), a.min()) << at.describe();
                    ASSERT_EQ(b.max(), a.max()) << at.describe();
                }
            }
        }
    }
    SimCounters rc = ref.simCounters(), gc = got.simCounters();
    EXPECT_EQ(gc.toJson(), rc.toJson());
    EXPECT_EQ(gc.memoHits, rc.memoHits);
    EXPECT_EQ(got.clampHits(), ref.clampHits());
}

/**
 * @p steps random operations on a twin pair over @p cfg mapped with
 * @p topo; each is followed by a two-row batch and a one-row forward
 * and a full comparison.
 */
template <class Backend>
void
checkInterleaving(const AcceleratorConfig &cfg, MlpTopology topo,
                  uint64_t seed, int steps)
{
    Reference<Backend> ref(cfg, topo);
    View<Backend> got(cfg, topo);
    Rng rng(seed);
    std::vector<DeepWeights> flat = weightCycle(topo, rng);
    std::vector<std::vector<double>> rows(3);
    for (auto &row : rows) {
        row.resize(static_cast<size_t>(topo.inputs));
        for (double &v : row)
            v = rng.nextDouble();
    }
    auto inject = [&](const UnitSite &site) {
        uint64_t s = rng.nextUint(1ull << 40);
        int count = 1 + pick(rng, 3);
        Rng a(s), b(s);
        ref.injectDefects(site, count, a);
        got.injectDefects(site, count, b);
    };

    ref.setWeights(flat[0]);
    got.setWeights(flat[0]);
    for (int step = 0; step < steps; ++step) {
        int op = pick(rng, 13);
        std::string what;
        switch (op) {
          case 0:
          case 1:
          case 2:
          case 3: {
            size_t k = static_cast<size_t>(pick(rng, 5));
            ref.setWeights(flat[k]);
            got.setWeights(flat[k]);
            what = "setWeights";
            break;
          }
          case 4:
          case 5: {
            UnitSite site = latchSite(cfg, topo, op == 4, rng);
            inject(site);
            what = "inject " + site.describe();
            break;
          }
          case 6: {
            UnitSite site = rng.nextUint(2) ? sharedSite(cfg, rng)
                                            : datapathSite(cfg, rng);
            inject(site);
            what = "inject " + site.describe();
            break;
          }
          case 7: {
            UnitSite site = rng.nextUint(4)
                ? latchSite(cfg, topo, rng.nextUint(2) != 0, rng)
                : datapathSite(cfg, rng);
            ref.bypassUnit(site);
            got.bypassUnit(site);
            what = "bypass " + site.describe();
            break;
          }
          case 8:
            if (rng.nextUint(2)) {
                ref.clearDefects();
                got.clearDefects();
                what = "clearDefects";
            } else {
                ref.clearBypasses();
                got.clearBypasses();
                what = "clearBypasses";
            }
            break;
          case 9: {
            // A window on one layer, about half of them excluding
            // sigmoid(0) = 0.5; or no windows.
            if (rng.nextUint(4) == 0) {
                ref.clearActivationClamps();
                got.clearActivationClamps();
                what = "clearActivationClamps";
                break;
            }
            Layer layer = rng.nextUint(2) ? Layer::Output : Layer::Hidden;
            double lo = rng.nextDouble(0.0, 0.6);
            double hi = lo + rng.nextDouble(0.05, 0.4);
            ref.setActivationClamp(layer, Fix16::fromDouble(lo),
                                   Fix16::fromDouble(hi));
            got.setActivationClamp(layer, Fix16::fromDouble(lo),
                                   Fix16::fromDouble(hi));
            what = "setActivationClamp";
            break;
          }
          case 10: {
            // The same weights installed several times in a row.
            size_t k = static_cast<size_t>(pick(rng, 5));
            int repeats = 2 + pick(rng, 4);
            for (int r = 0; r < repeats; ++r) {
                ref.setWeights(flat[k]);
                got.setWeights(flat[k]);
            }
            what = "setWeights x" + std::to_string(repeats);
            break;
          }
          default: {
            // Raw row access is the spatial array's alone.
            if constexpr (std::is_same_v<Backend, SpatialBackend>) {
                // A raw row with non-zero padding words, as the
                // time-multiplexing wrappers load.
                bool h = rng.nextUint(2) != 0;
                std::vector<Fix16> row(
                    static_cast<size_t>((h ? cfg.inputs : cfg.hidden) + 1));
                for (Fix16 &v : row)
                    v = Fix16::fromDouble(rng.nextDouble(-2.0, 2.0));
                int n = pick(rng, h ? cfg.hidden : cfg.outputs);
                Layer layer = h ? Layer::Hidden : Layer::Output;
                ref.loadPhysicalRow(layer, n, row);
                got.loadPhysicalRow(layer, n, row);
                what = h ? "loadPhysicalRow(Hidden)"
                         : "loadPhysicalRow(Output)";
                break;
            }
            continue;
          }
        }
        SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
        expectSameState(ref, got);
        auto want = ref.forwardBatch(rows);
        auto have = got.forwardBatch(rows);
        for (size_t r = 0; r < want.size(); ++r)
            ASSERT_EQ(have[r].layers, want[r].layers) << "row " << r;
        ASSERT_EQ(got.forward(rows[0]).layers, ref.forward(rows[0]).layers);
        expectSameState(ref, got);
        if (testing::Test::HasFailure())
            return;
    }
}

TEST(WeightLoad, SpatialMatchesFullArrayLoop)
{
    for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkInterleaving<SpatialBackend>(smallArray(), {8, 3, 2}, seed,
                                          150);
    }
}

TEST(WeightLoad, SystolicMatchesFullArrayLoop)
{
    for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkInterleaving<SystolicBackend>(smallArray(), {8, 3, 2}, seed,
                                           150);
    }
}

TEST(WeightLoad, SpatialPaperArray)
{
    // The retraining benchmarks' shape: an 18-10-4 task on the
    // 90-10-10 array, nearly all of it padding.
    for (uint64_t seed : {11, 12}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkInterleaving<SpatialBackend>(AcceleratorConfig(), {18, 10, 4},
                                          seed, 60);
    }
}

TEST(WeightLoad, SystolicPaperArray)
{
    for (uint64_t seed : {11, 12}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkInterleaving<SystolicBackend>(AcceleratorConfig(),
                                           {18, 10, 4}, seed, 60);
    }
}

} // namespace
} // namespace dtann
