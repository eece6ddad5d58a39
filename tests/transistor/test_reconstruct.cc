/**
 * @file
 * Tests for faulty-gate reconstruction, including the paper's
 * Section III-B worked examples on the (a+b).(c+d) gate (OAI22).
 */

#include <gtest/gtest.h>

#include "transistor/reconstruct.hh"

namespace dtann {
namespace {

const std::vector<GateKind> realKinds = {
    GateKind::Not, GateKind::Nand2, GateKind::Nand3, GateKind::Nor2,
    GateKind::Nor3, GateKind::Aoi21, GateKind::Aoi22, GateKind::Oai21,
    GateKind::Oai22, GateKind::CarryN, GateKind::MirrorSumN};

class ReconstructClean : public ::testing::TestWithParam<GateKind>
{
};

TEST_P(ReconstructClean, NoDefectsReproducesTruthTable)
{
    // This validates every switch network against the gate's
    // boolean function: with no defects, exactly one channel
    // network conducts for each input (no MEM, no fight).
    ReconstructedGate rec = reconstruct(GetParam(), {});
    EXPECT_TRUE(rec.function.matchesKind(GetParam()))
        << gateName(GetParam());
    EXPECT_FALSE(rec.function.hasMem());
    EXPECT_FALSE(rec.delayed);
}

TEST_P(ReconstructClean, ShortsNeverFlipZeroToOne)
{
    // A source-drain short only adds conduction paths. If the clean
    // gate pulls the output low (Z_N = 1), the faulty gate still
    // does: ground dominates. So no single short can turn a 0 into
    // a 1 or a MEM.
    GateKind kind = GetParam();
    GateFunction clean = GateFunction::fromGateKind(kind);
    for (const Defect &d : allSingleSwitchDefects(kind)) {
        if (d.kind != DefectKind::ShortSD)
            continue;
        ReconstructedGate rec = reconstruct(kind, {{d}});
        for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in) {
            if (clean.eval(in) == LogicValue::Zero) {
                EXPECT_EQ(rec.function.eval(in), LogicValue::Zero)
                    << gateName(kind) << " " << d.describe()
                    << " in=" << in;
            }
        }
    }
}

TEST_P(ReconstructClean, OpensNeverFlipOneToZero)
{
    // An open only removes conduction paths: a clean 1 (Z_P = 1,
    // Z_N = 0) can degrade to MEM but never to a driven 0.
    GateKind kind = GetParam();
    GateFunction clean = GateFunction::fromGateKind(kind);
    for (const Defect &d : allSingleSwitchDefects(kind)) {
        if (d.kind != DefectKind::Open)
            continue;
        ReconstructedGate rec = reconstruct(kind, {{d}});
        for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in) {
            if (clean.eval(in) == LogicValue::One) {
                EXPECT_NE(rec.function.eval(in), LogicValue::Zero)
                    << gateName(kind) << " " << d.describe()
                    << " in=" << in;
            }
        }
    }
}

TEST_P(ReconstructClean, SomeSingleOpenIsObservable)
{
    // At least one single open changes the gate's behaviour (sanity
    // that defects are not uniformly masked).
    GateKind kind = GetParam();
    GateFunction clean = GateFunction::fromGateKind(kind);
    bool any_changed = false;
    for (const Defect &d : allSingleSwitchDefects(kind)) {
        if (d.kind != DefectKind::Open)
            continue;
        ReconstructedGate rec = reconstruct(kind, {{d}});
        if (!(rec.function == clean))
            any_changed = true;
    }
    EXPECT_TRUE(any_changed) << gateName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllGateKinds, ReconstructClean, ::testing::ValuesIn(realKinds),
    [](const auto &info) { return gateName(info.param); });

// --- Paper Section III-B worked examples -------------------------
//
// The paper's example gate computes the complement of
// (a+b).(c+d): our OAI22. In our schematic the P network is the
// series-of-parallel dual: path1 = a,b (switches 0,1 through node
// 2), path2 = c,d (switches 2,3 through node 3).

TEST(PaperExample, OpenAtTransistor1KillsFirstPullUpPath)
{
    // Open at the drain of "transistor 1" (our P switch 0, input a):
    // Z can only be pulled up through the c,d path, i.e., when
    // c = 0 and d = 0 (Z_P = !c.!d in conduction terms).
    Defect d{DefectKind::Open, true, 0, 0, 0};
    ReconstructedGate rec = reconstruct(GateKind::Oai22, {{d}});

    // a=b=0, c=1 (second path off): clean gate outputs 1 through
    // the a,b path; the faulty gate floats (Z_P = Z_N = 0) -> MEM.
    uint32_t in = 0b0100; // a=0 b=0 c=1 d=0
    EXPECT_EQ(GateFunction::fromGateKind(GateKind::Oai22).eval(in),
              LogicValue::One);
    EXPECT_EQ(rec.function.eval(in), LogicValue::Mem);

    // The paper's specific case: a=b=0, c=d=1 -> Z_P = Z_N = 0,
    // a memory state.
    EXPECT_EQ(rec.function.eval(0b1100), LogicValue::Mem);

    // c=d=0 still pulls up normally.
    EXPECT_EQ(rec.function.eval(0b0000), LogicValue::One);
    EXPECT_TRUE(rec.function.hasMem());
}

TEST(PaperExample, ShortOnParallelPathTransistorIsLogicallyMasked)
{
    // Source-drain short of "transistor 2" (our P switch 2, input
    // c): Z_P becomes !a.!b + !d. The new conduction cases all have
    // Z_N = 1, where the ground path dominates, so the gate's logic
    // function is unchanged -- exactly why the paper warns that
    // fault behaviour must be derived, not assumed.
    Defect d{DefectKind::ShortSD, true, 2, 0, 0};
    ReconstructedGate rec = reconstruct(GateKind::Oai22, {{d}});
    EXPECT_TRUE(rec.function.matchesKind(GateKind::Oai22));
}

TEST(PaperExample, BridgeBetweenInternalNodesJoinsPaths)
{
    // Bridge between the internal nodes of the two P branches
    // (paper: drains of transistors 1 and 2). Conduction becomes
    // (!a + !c).(!b + !d): pull-up paths can mix a with d and c
    // with b.
    Defect d{DefectKind::Bridge, true, 0, 2, 3};
    ReconstructedGate rec = reconstruct(GateKind::Oai22, {{d}});
    for (uint32_t in = 0; in < 16; ++in) {
        bool a = in & 1, b = in & 2, c = in & 4, dd = in & 8;
        bool zp = (!a || !c) && (!b || !dd);
        bool zn = (a || b) && (c || dd);
        LogicValue expect = zn ? LogicValue::Zero
            : (zp ? LogicValue::One : LogicValue::Mem);
        EXPECT_EQ(rec.function.eval(in), expect) << "in=" << in;
    }
}

TEST(PaperExample, BridgeOutToInternalChangesNandFunction)
{
    // NAND2 N network: out -a- n2 -b- Vss. Bridging out to n2
    // bypasses the a transistor: Z_N = b, so the gate degenerates
    // to NOT(b) behaviour wherever b pulls down.
    Defect d{DefectKind::Bridge, false, 0, 1, 2};
    ReconstructedGate rec = reconstruct(GateKind::Nand2, {{d}});
    // a=0, b=1: clean NAND = 1, faulty pulls down through b -> 0.
    EXPECT_EQ(rec.function.eval(0b10), LogicValue::Zero);
    // a=1, b=1 still 0; a=*, b=0 still 1 (P network intact).
    EXPECT_EQ(rec.function.eval(0b11), LogicValue::Zero);
    EXPECT_EQ(rec.function.eval(0b00), LogicValue::One);
    EXPECT_EQ(rec.function.eval(0b01), LogicValue::One);
}

TEST(Reconstruct, ShortsOnBothNetworksMakeConstantZero)
{
    // NOT with both transistors shorted: Z_P = Z_N = 1 always; the
    // ground path dominates (B-block row Z_N=1 -> 0).
    std::vector<Defect> defects = {
        {DefectKind::ShortSD, true, 0, 0, 0},
        {DefectKind::ShortSD, false, 0, 0, 0},
    };
    ReconstructedGate rec = reconstruct(GateKind::Not, defects);
    EXPECT_EQ(rec.function.eval(0), LogicValue::Zero);
    EXPECT_EQ(rec.function.eval(1), LogicValue::Zero);
}

TEST(Reconstruct, OpensOnBothNetworksMakeFloatingOutput)
{
    std::vector<Defect> defects = {
        {DefectKind::Open, true, 0, 0, 0},
        {DefectKind::Open, false, 0, 0, 0},
    };
    ReconstructedGate rec = reconstruct(GateKind::Not, defects);
    EXPECT_EQ(rec.function.eval(0), LogicValue::Mem);
    EXPECT_EQ(rec.function.eval(1), LogicValue::Mem);
}

TEST(Reconstruct, DelayDefectFlagsGate)
{
    Defect d{DefectKind::Delay, false, 0, 0, 0};
    ReconstructedGate rec = reconstruct(GateKind::Nand2, {{d}});
    EXPECT_TRUE(rec.delayed);
    EXPECT_TRUE(rec.function.matchesKind(GateKind::Nand2));
}

TEST(Reconstruct, StuckOffNmosInNandSeriesChain)
{
    // Open on the b transistor of NAND2's series chain: the gate
    // can never pull down; output is 1 when any PMOS conducts and
    // MEM when a=b=1.
    Defect d{DefectKind::Open, false, 1, 0, 0};
    ReconstructedGate rec = reconstruct(GateKind::Nand2, {{d}});
    EXPECT_EQ(rec.function.eval(0b00), LogicValue::One);
    EXPECT_EQ(rec.function.eval(0b01), LogicValue::One);
    EXPECT_EQ(rec.function.eval(0b10), LogicValue::One);
    EXPECT_EQ(rec.function.eval(0b11), LogicValue::Mem);
}

TEST(Reconstruct, ShortedNmosTurnsNandIntoInverterOfOther)
{
    // Short on the a transistor of NAND2's series chain: Z_N = b,
    // so out = !b regardless of a (P network change is masked).
    Defect d{DefectKind::ShortSD, false, 0, 0, 0};
    ReconstructedGate rec = reconstruct(GateKind::Nand2, {{d}});
    for (uint32_t in = 0; in < 4; ++in) {
        bool b = in & 2;
        LogicValue expect = b ? LogicValue::Zero : LogicValue::One;
        EXPECT_EQ(rec.function.eval(in), expect) << "in=" << in;
    }
}

TEST(RandomDefect, DrawsAreValid)
{
    Rng rng(99);
    for (GateKind kind : realKinds) {
        const GateSchematic &s = schematicFor(kind);
        for (int i = 0; i < 500; ++i) {
            Defect d = randomDefect(kind, rng);
            switch (d.kind) {
              case DefectKind::Open:
              case DefectKind::ShortSD: {
                const auto &net = d.pNetwork ? s.p : s.n;
                EXPECT_LT(d.switchIndex, net.switches.size());
                break;
              }
              case DefectKind::Bridge: {
                const auto &net = d.pNetwork ? s.p : s.n;
                EXPECT_LT(d.nodeA, net.numNodes);
                EXPECT_LT(d.nodeB, net.numNodes);
                EXPECT_NE(d.nodeA, d.nodeB);
                break;
              }
              case DefectKind::Delay:
                break;
              default:
                FAIL() << "bad defect kind";
            }
            // Reconstruction never fails on a random defect.
            reconstruct(kind, {{d}});
        }
    }
}

TEST(RandomDefect, MixIsRespectedRoughly)
{
    Rng rng(5);
    DefectMix mix;
    mix.open = 1.0;
    mix.shortSd = mix.bridge = mix.delay = 0.0;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(randomDefect(GateKind::Nand2, rng, mix).kind,
                  DefectKind::Open);
}

TEST(AllSingleSwitchDefects, CountIsTwicePerTransistor)
{
    for (GateKind kind : realKinds) {
        auto all = allSingleSwitchDefects(kind);
        EXPECT_EQ(all.size(),
                  2 * static_cast<size_t>(gateTransistorCount(kind)))
            << gateName(kind);
    }
}

TEST(Defect, DescribeIsInformative)
{
    Defect d{DefectKind::Open, true, 3, 0, 0};
    EXPECT_EQ(d.describe(), "open(P,t3)");
    Defect b{DefectKind::Bridge, false, 0, 1, 2};
    EXPECT_EQ(b.describe(), "bridge(N,n1-n2)");
    Defect dl{DefectKind::Delay, false, 0, 0, 0};
    EXPECT_EQ(dl.describe(), "delay");
}

} // namespace
} // namespace dtann
