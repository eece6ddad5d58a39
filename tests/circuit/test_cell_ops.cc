/**
 * @file
 * Cell ops against gate ops, call by call. Each case evaluates one
 * fault set three ways: the cone-pruned Evaluator on the indexed
 * operator netlist (clean cells as table ops), the same on a
 * gate-for-gate copy without an index (gate ops only), and the
 * per-gate reference interpreter. Outputs, output nets, state bits
 * and gateEvals() must agree after every vector; state-free sets
 * also run OperatorSim::applyLanes() at DTANN_LANES 64/256/512 on
 * both netlists. The cases put faults where cell ops could go wrong:
 * two defects in one cell, two adjacent cells with one feeding the
 * other, clean cells only partly in the cone's support, and MEM and
 * delay faults beside clean cells.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "circuit/batch_evaluator.hh"
#include "circuit/cell_index.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "reference_cone.hh"
#include "reference_evaluator.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"

namespace dtann {
namespace {

/** An operator netlist, its index-free copy and its clean model. */
struct Unit
{
    std::shared_ptr<const Netlist> nl;
    std::shared_ptr<const Netlist> bare;
    CleanFn clean;
    int inputBits;
};

Unit
multiplier()
{
    auto nl = std::make_shared<const Netlist>(
        buildMultiplierSigned(16, FaStyle::Nand9));
    return {nl, std::make_shared<const Netlist>(bareCopy(*nl)),
            cleanMultiplierSigned(16), 32};
}

Unit
adder(FaStyle style)
{
    auto nl = std::make_shared<const Netlist>(
        buildRippleAdder(24, style, false));
    return {nl, std::make_shared<const Netlist>(bareCopy(*nl)),
            cleanAdder(24, false), 48};
}

/** Clean table of gate @p gi with entry @p entry floating (MEM). */
GateFunction
floating(const Netlist &nl, uint32_t gi, uint32_t entry)
{
    GateKind kind = nl.gate(gi).kind;
    int arity = gateArity(kind);
    uint32_t value = 0;
    for (uint32_t idx = 0; idx < (1u << arity); ++idx)
        value |= static_cast<uint32_t>(gateEval(kind, idx)) << idx;
    return GateFunction(arity, value, 1u << (entry % (1u << arity)));
}

/** A full-adder cell (3 inputs, 2 outputs) near the middle of the
 *  multiplier's reduction tree. */
const Cell &
middleFullAdder(const Netlist &nl)
{
    const CellIndex &index = *nl.cellIndex();
    for (size_t grp = index.numCells() * 2 / 3; grp < index.numCells();
         ++grp) {
        const Cell &c = index.cell(grp);
        if (c.eligible && c.numIn == 3 && c.numOut == 2)
            return c;
    }
    ADD_FAILURE() << "no full-adder cell";
    return index.cell(0);
}

/** The group of the first gate after @p c that reads its output. */
const Cell &
consumerOf(const Netlist &nl, const Cell &c, int output)
{
    for (uint32_t gi = c.endGate; gi < nl.numGates(); ++gi) {
        const Gate &g = nl.gate(gi);
        for (int p = 0; p < g.arity(); ++p)
            if (g.in[p] == c.out[output])
                return nl.cellIndex()->cell(g.group);
    }
    ADD_FAILURE() << "output " << output << " has no reader";
    return c;
}

/** Check @p faults on @p u call by call (see the file comment). */
void
expectCellOpsMatchGateOps(const Unit &u, const FaultSet &faults,
                          uint64_t seed)
{
    ASSERT_NE(u.nl->cellIndex(), nullptr);
    ASSERT_EQ(u.bare->cellIndex(), nullptr);
    Rng rng(seed);
    std::vector<uint64_t> in(300);
    for (uint64_t &v : in)
        v = rng.nextUint(1ull << u.inputBits);
    size_t n_out = u.nl->outputs().size();

    Evaluator cells(*u.nl, faults, u.clean);
    Evaluator gates(*u.bare, faults, u.clean);
    ReferenceEvaluator ref(*u.nl, faults, u.clean);
    ASSERT_TRUE(cells.conePruned());
    EXPECT_EQ(cells.stateNets(), gates.stateNets());
    std::vector<uint64_t> want(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        SCOPED_TRACE("vector " + std::to_string(i));
        want[i] = ref.evaluateBits(in[i]);
        ASSERT_EQ(cells.evaluateBits(in[i]), want[i]);
        ASSERT_EQ(gates.evaluateBits(in[i]), want[i]);
        ASSERT_EQ(cells.outputBits(n_out), gates.outputBits(n_out));
        ASSERT_EQ(cells.stateBits(), gates.stateBits());
        ASSERT_EQ(cells.gateEvals(), gates.gateEvals());
        ASSERT_EQ(cells.gateEvals(), ref.gateEvals());
    }

    for (const char *lanes : {"64", "256", "512"}) {
        SCOPED_TRACE(std::string("DTANN_LANES=") + lanes);
        setenv("DTANN_LANES", lanes, 1);
        OperatorSim on_cells(u.nl, Injection{faults, {}}, u.clean);
        OperatorSim on_gates(u.bare, Injection{faults, {}}, u.clean);
        EXPECT_EQ(on_cells.batched(), on_gates.batched());
        std::vector<uint64_t> got_cells(in.size()), got_gates(in.size());
        on_cells.applyLanes(in.data(), got_cells.data(), in.size());
        on_gates.applyLanes(in.data(), got_gates.data(), in.size());
        EXPECT_EQ(got_cells, want);
        EXPECT_EQ(got_gates, want);
        SimCounters cc = on_cells.counters(), cg = on_gates.counters();
        EXPECT_EQ(cc.batchGateSweeps, cg.batchGateSweeps);
        EXPECT_EQ(cc.gateEvals, cg.gateEvals);
        EXPECT_EQ(cc.batchVectors, cg.batchVectors);
    }
    unsetenv("DTANN_LANES");
}

/** One pruned sweep, scalar and lanes, charges the active gates. */
void
expectChargePerActiveGate(const Unit &u, const FaultSet &faults)
{
    Evaluator eval(*u.nl, faults, u.clean);
    ASSERT_TRUE(eval.conePruned());
    eval.evaluateBits(0x1234567);
    size_t active = referenceFaultCone(*u.nl, faults).activeGates.size();
    EXPECT_EQ(eval.gateEvals(), active);
    EXPECT_EQ(eval.faultCone()->activeCount, active);
    if (!faults.isStateless())
        return;
    BatchEvaluator batch(*u.nl, faults, u.clean, 256);
    ASSERT_TRUE(batch.conePruned());
    uint64_t in[3] = {1, 2, 3}, out[3];
    batch.evaluateLanes(in, out, 3);
    EXPECT_EQ(batch.sweeps(), 1u);
    EXPECT_EQ(batch.gateSweeps(), active);
}

TEST(CellOps, TwoDefectsInOneCell)
{
    Unit u = multiplier();
    const Cell &c = middleFullAdder(*u.nl);
    ASSERT_EQ(c.numGates, 9u); // Nand9 full adder
    FaultSet pure;
    pure.overrides[c.firstGate + 1] = flipped(*u.nl, c.firstGate + 1, 1);
    pure.overrides[c.firstGate + 5] = flipped(*u.nl, c.firstGate + 5, 2);
    expectCellOpsMatchGateOps(u, pure, 11);
    expectChargePerActiveGate(u, pure);

    FaultSet mem;
    mem.overrides[c.firstGate] = floating(*u.nl, c.firstGate, 3);
    mem.overrides[c.endGate - 1] = flipped(*u.nl, c.endGate - 1, 0);
    expectCellOpsMatchGateOps(u, mem, 12);
    expectChargePerActiveGate(u, mem);
}

TEST(CellOps, AdjacentCellsOneFeedingTheOther)
{
    Unit u = multiplier();
    const Cell &a = middleFullAdder(*u.nl);
    for (int output : {0, 1}) {
        SCOPED_TRACE("output " + std::to_string(output));
        const Cell &b = consumerOf(*u.nl, a, output);
        ASSERT_NE(b.firstGate, a.firstGate);
        FaultSet faults;
        faults.overrides[a.firstGate + 3] =
            flipped(*u.nl, a.firstGate + 3, 2);
        faults.overrides[b.firstGate] = flipped(*u.nl, b.firstGate, 1);
        expectCellOpsMatchGateOps(u, faults, 21 + output);
        expectChargePerActiveGate(u, faults);
    }
}

TEST(CellOps, PartlyActiveCleanCells)
{
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        SCOPED_TRACE(faStyleName(style));
        Unit u = adder(style);
        const CellIndex &index = *u.nl->cellIndex();
        // A fault on the sum side of bit 16: the cone is that sum
        // bit, and its support is the carry path of bits 0..15, so
        // those cells are active without their sum gates.
        const Cell &bit16 = index.cell(16);
        uint32_t sum_gate = style == FaStyle::Nand9 ? bit16.firstGate + 7
                                                    : bit16.firstGate + 2;
        FaultSet faults;
        faults.overrides[sum_gate] = flipped(*u.nl, sum_gate, 3);
        ReferenceCone cone = referenceFaultCone(*u.nl, faults);
        ASSERT_TRUE(cone.valid);
        EXPECT_EQ(cone.outputMask, 1ull << 16);
        size_t partial = 0;
        for (size_t grp = 0; grp < 16; ++grp) {
            const Cell &c = index.cell(grp);
            size_t active = 0;
            for (uint32_t gi : cone.activeGates)
                active += gi >= c.firstGate && gi < c.endGate;
            partial += active > 0 && active < c.numGates;
        }
        EXPECT_EQ(partial, 16u);
        expectCellOpsMatchGateOps(u, faults, 31);
        expectChargePerActiveGate(u, faults);
    }
}

TEST(CellOps, MemAndDelayFaultsBesideCleanCells)
{
    Unit u = multiplier();
    const Cell &a = middleFullAdder(*u.nl);
    const Cell &b = consumerOf(*u.nl, a, 1);
    FaultSet faults;
    faults.overrides[a.firstGate + 4] = floating(*u.nl, a.firstGate + 4, 1);
    faults.delayed.insert(b.firstGate);
    faults.stuckAt.push_back({a.endGate - 1, 0, true});
    ASSERT_FALSE(faults.isStateless());
    expectCellOpsMatchGateOps(u, faults, 41);
    expectChargePerActiveGate(u, faults);

    // The same on an adder, where every cell below the faults is
    // partly active.
    Unit add = adder(FaStyle::Nand9);
    const Cell &c = add.nl->cellIndex()->cell(9);
    FaultSet adder_faults;
    adder_faults.overrides[c.firstGate + 2] =
        floating(*add.nl, c.firstGate + 2, 2);
    adder_faults.delayed.insert(c.firstGate + 7);
    expectCellOpsMatchGateOps(add, adder_faults, 42);
    expectChargePerActiveGate(add, adder_faults);
}

} // namespace
} // namespace dtann
