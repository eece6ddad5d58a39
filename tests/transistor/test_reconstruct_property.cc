/**
 * @file
 * Property sweeps over the reconstruction engine.
 *
 * Physical intuition encoded as invariants:
 *  - shorts only ADD conduction: they can repair floating states
 *    but never create one, and never flip a driven 0;
 *  - opens only REMOVE conduction: they can float a node but never
 *    un-float one, and never flip a 1 into a driven 0;
 *  - any combination of defects still yields a well-formed
 *    three-valued function of the right arity.
 */

#include <gtest/gtest.h>

#include "transistor/reconstruct.hh"

namespace dtann {
namespace {

const std::vector<GateKind> realKinds = {
    GateKind::Not, GateKind::Nand2, GateKind::Nand3, GateKind::Nor2,
    GateKind::Nor3, GateKind::Aoi21, GateKind::Aoi22, GateKind::Oai21,
    GateKind::Oai22, GateKind::CarryN, GateKind::MirrorSumN};

class ReconstructProperty : public ::testing::TestWithParam<GateKind>
{
  protected:
    /** Count MEM entries of a function. */
    static int
    memCount(const GateFunction &f)
    {
        int count = 0;
        for (uint32_t in = 0; in < (1u << f.numInputs()); ++in)
            count += f.eval(in) == LogicValue::Mem;
        return count;
    }
};

TEST_P(ReconstructProperty, SingleShortNeverCreatesMem)
{
    GateKind kind = GetParam();
    for (const Defect &d : allSingleSwitchDefects(kind)) {
        if (d.kind != DefectKind::ShortSD)
            continue;
        ReconstructedGate rec = reconstruct(kind, {{d}});
        EXPECT_EQ(memCount(rec.function), 0)
            << gateName(kind) << " " << d.describe();
    }
}

TEST_P(ReconstructProperty, SingleOpenNeverRemovesDrivenValueToOpposite)
{
    // An open can only degrade a driven value to MEM, never flip
    // it: 1 -> {1, MEM}, 0 -> {0, MEM}.
    GateKind kind = GetParam();
    GateFunction clean = GateFunction::fromGateKind(kind);
    for (const Defect &d : allSingleSwitchDefects(kind)) {
        if (d.kind != DefectKind::Open)
            continue;
        ReconstructedGate rec = reconstruct(kind, {{d}});
        for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in) {
            LogicValue before = clean.eval(in);
            LogicValue after = rec.function.eval(in);
            if (after != LogicValue::Mem) {
                EXPECT_EQ(after, before)
                    << gateName(kind) << " " << d.describe()
                    << " in=" << in;
            }
        }
    }
}

TEST_P(ReconstructProperty, ShortOnTopOfOpensCanOnlyShrinkMemSet)
{
    // Starting from each single open (which may float some inputs),
    // adding any single short must not grow the MEM set: shorts add
    // conduction paths.
    GateKind kind = GetParam();
    auto all = allSingleSwitchDefects(kind);
    for (const Defect &open : all) {
        if (open.kind != DefectKind::Open)
            continue;
        ReconstructedGate base = reconstruct(kind, {{open}});
        for (const Defect &sh : all) {
            if (sh.kind != DefectKind::ShortSD)
                continue;
            std::vector<Defect> both = {open, sh};
            ReconstructedGate rec = reconstruct(kind, both);
            for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in) {
                if (rec.function.eval(in) == LogicValue::Mem) {
                    EXPECT_EQ(base.function.eval(in), LogicValue::Mem)
                        << gateName(kind) << " " << open.describe()
                        << "+" << sh.describe() << " in=" << in;
                }
            }
        }
    }
}

TEST_P(ReconstructProperty, RandomDefectPilesAreWellFormed)
{
    GateKind kind = GetParam();
    Rng rng(271);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<Defect> defects;
        int n = 1 + static_cast<int>(rng.nextUint(6));
        for (int i = 0; i < n; ++i)
            defects.push_back(randomDefect(kind, rng));
        ReconstructedGate rec = reconstruct(kind, defects);
        EXPECT_EQ(rec.function.numInputs(), gateArity(kind));
        for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in) {
            LogicValue v = rec.function.eval(in);
            EXPECT_TRUE(v == LogicValue::Zero || v == LogicValue::One ||
                        v == LogicValue::Mem);
        }
    }
}

TEST_P(ReconstructProperty, AllBridgesEnumerateAndReconstruct)
{
    GateKind kind = GetParam();
    const GateSchematic &sch = schematicFor(kind);
    for (int pn = 0; pn < 2; ++pn) {
        const ChannelNetwork &net = pn ? sch.p : sch.n;
        for (uint8_t a = 0; a < net.numNodes; ++a) {
            for (uint8_t b = static_cast<uint8_t>(a + 1);
                 b < net.numNodes; ++b) {
                Defect d{DefectKind::Bridge, pn != 0, 0, a, b};
                ReconstructedGate rec = reconstruct(kind, {{d}});
                EXPECT_EQ(rec.function.numInputs(), gateArity(kind));
                // A rail-to-output bridge forces that network to
                // conduct always.
                if ((a == 0 && b == 1) || (a == 1 && b == 0)) {
                    for (uint32_t in = 0;
                         in < (1u << gateArity(kind)); ++in) {
                        LogicValue v = rec.function.eval(in);
                        if (pn == 0) {
                            // N network bridged: always grounded.
                            EXPECT_EQ(v, LogicValue::Zero);
                        } else {
                            // P bridged: 1 unless N conducts too.
                            EXPECT_NE(v, LogicValue::Mem);
                        }
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGateKinds, ReconstructProperty, ::testing::ValuesIn(realKinds),
    [](const auto &info) { return gateName(info.param); });

} // namespace
} // namespace dtann
