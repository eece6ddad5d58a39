/**
 * @file
 * Wide lane planes (DESIGN.md §9): DTANN_LANES width/ISA
 * negotiation, the algebraic normal form lane ops are written in,
 * and bit-identity of the sweep kernels across every supported plane
 * width — the single-word 64-lane layout is the oracle, and every
 * compiled wide kernel the CPU runs must agree with it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/batch_evaluator.hh"
#include "circuit/fault_cone.hh"
#include "circuit/lane_plane.hh"
#include "common/rng.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/multiplier.hh"

namespace dtann {
namespace {

/** Save DTANN_LANES on entry, restore it on scope exit. */
struct LaneEnvGuard
{
    bool had;
    std::string saved;
    LaneEnvGuard()
    {
        const char *v = std::getenv("DTANN_LANES");
        had = v != nullptr;
        if (had)
            saved = v;
    }
    ~LaneEnvGuard()
    {
        if (had)
            setenv("DTANN_LANES", saved.c_str(), 1);
        else
            unsetenv("DTANN_LANES");
    }
};

TEST(LanePlane, KnobResolvesWidthLive)
{
    LaneEnvGuard guard;
    setenv("DTANN_LANES", "64", 1);
    EXPECT_EQ(batchLaneWords(), 1u);
    EXPECT_EQ(batchLaneWidth(), 64u);
    setenv("DTANN_LANES", "256", 1);
    EXPECT_EQ(batchLaneWords(), 4u);
    EXPECT_EQ(batchLaneWidth(), 256u);
    setenv("DTANN_LANES", "512", 1);
    EXPECT_EQ(batchLaneWords(), 8u);
    EXPECT_EQ(batchLaneWidth(), 512u);
    // Auto (unset or 0) picks a wide plane, never the 64-lane
    // oracle: that one is only ever an explicit request.
    unsetenv("DTANN_LANES");
    size_t auto_words = batchLaneWords();
    EXPECT_TRUE(auto_words == 4 || auto_words == 8);
    setenv("DTANN_LANES", "0", 1);
    EXPECT_EQ(batchLaneWords(), auto_words);
    // An unsupported width warns and falls back to auto rather than
    // aborting a campaign over a typo.
    setenv("DTANN_LANES", "128", 1);
    EXPECT_EQ(batchLaneWords(), auto_words);
}

TEST(LanePlane, EveryWidthHasAKernel)
{
    for (size_t words : {1u, 4u, 8u}) {
        EXPECT_NE(laneSweepFor(words), nullptr) << words;
        EXPECT_NE(laneSweepGeneric(words), nullptr) << words;
        EXPECT_NE(laneSweepIsaFor(words), nullptr) << words;
    }
    EXPECT_STREQ(laneSweepIsaFor(1), "scalar64");
    EXPECT_EQ(std::string(batchLaneIsa()),
              laneSweepIsaFor(batchLaneWords()));
}

TEST(LanePlane, AlgebraicNormalFormOfEveryTable)
{
    // The lane formula: entry idx of a table is the XOR of the
    // products its normal form lists whose variables idx all sets.
    size_t wrong = 0;
    for (uint32_t table = 0; table < 0x10000; ++table) {
        uint16_t anf = algebraicNormalForm(static_cast<uint16_t>(table));
        for (uint32_t idx = 0; idx < 16; ++idx) {
            uint32_t v = 0;
            for (uint32_t m = 0; m < 16; ++m)
                if ((anf >> m & 1) && (idx & m) == m)
                    v ^= 1;
            wrong += v != (table >> idx & 1);
        }
    }
    EXPECT_EQ(wrong, 0u);
}

/** True when this CPU runs @p isa ("avx2" or "avx512f") code. */
bool
cpuRuns(const char *isa)
{
#if defined(__x86_64__) || defined(__i386__)
    return std::string(isa) == "avx2" ? __builtin_cpu_supports("avx2")
                                      : __builtin_cpu_supports("avx512f");
#else
    (void)isa;
    return false;
#endif
}

TEST(LanePlane, EveryCompiledKernelMatchesTheSingleWordKernel)
{
    // Every wide kernel this build has and this CPU runs, called
    // directly on one folded program (the cone-pruned cell and gate
    // ops, then the full gate program) over random planes: word w of
    // every plane must be what the W = 1 generic kernel makes of
    // word w alone.
    struct Kernel
    {
        std::string name;
        size_t words;
        LaneSweepFn fn;
    };
    std::vector<Kernel> kernels = {{"generic", 4, laneSweepGeneric(4)},
                                   {"generic", 8, laneSweepGeneric(8)}};
#ifdef DTANN_HAVE_AVX2_TU
    if (cpuRuns("avx2")) {
        kernels.push_back({"avx2", 4, laneSweepAvx2(4)});
        kernels.push_back({"avx2", 8, laneSweepAvx2(8)});
    }
#endif
#ifdef DTANN_HAVE_AVX512_TU
    if (cpuRuns("avx512f"))
        kernels.push_back({"avx512", 8, laneSweepAvx512(8)});
#endif

    Netlist nl = buildMultiplierSigned(16, FaStyle::Nand9);
    Rng rng(14);
    Injection inj = injectTransistorDefects(nl, 3, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(nl, 3, rng);
    FaultCone cone = computeFaultCone(nl, inj.faults);
    ASSERT_TRUE(cone.valid);
    LaneSweepFn oracle = laneSweepGeneric(1);
    size_t nets = nl.numNets();
    for (bool pruned : {true, false}) {
        std::vector<LaneOp> prog =
            foldLaneOps(nl, inj.faults, pruned ? &cone.steps : nullptr);
        for (const Kernel &k : kernels) {
            SCOPED_TRACE(k.name + " W=" + std::to_string(k.words) +
                         (pruned ? " pruned" : " full"));
            std::vector<uint64_t> planes(nets * k.words);
            for (uint64_t &word : planes)
                word = rng.nextUint(~0ull);
            std::vector<uint64_t> want = planes;
            std::vector<uint64_t> column(nets);
            for (size_t w = 0; w < k.words; ++w) {
                for (size_t n = 0; n < nets; ++n)
                    column[n] = want[n * k.words + w];
                oracle(prog.data(), prog.size(), column.data());
                for (size_t n = 0; n < nets; ++n)
                    want[n * k.words + w] = column[n];
            }
            k.fn(prog.data(), prog.size(), planes.data());
            ASSERT_EQ(planes, want);
        }
    }
}

/** 200 packed vectors through a 12-bit multiplier netlist. */
std::vector<uint64_t>
sweepAtWidth(const Netlist &nl, const FaultSet &faults, CleanFn clean,
             size_t lanes, const std::vector<uint64_t> &in)
{
    auto ev = BatchEvaluator::tryCreate(nl, faults, clean, lanes);
    EXPECT_TRUE(ev.has_value());
    EXPECT_EQ(ev->laneCount(), lanes);
    std::vector<uint64_t> out(in.size());
    // Deliberately sweep in chunks that do not divide the plane
    // width so partially-filled planes are covered too.
    size_t chunk = lanes - 3;
    for (size_t off = 0; off < in.size(); off += chunk) {
        size_t n = std::min(chunk, in.size() - off);
        ev->evaluateLanes(in.data() + off, out.data() + off, n);
    }
    return out;
}

TEST(LanePlane, CleanSweepBitIdenticalAcrossWidths)
{
    Netlist nl = buildMultiplierUnsigned(6, FaStyle::Nand9);
    Rng rng(11);
    std::vector<uint64_t> in(200);
    for (auto &v : in)
        v = rng.nextUint(1ull << 12);

    auto oracle = sweepAtWidth(nl, {}, {}, 64, in);
    EXPECT_EQ(sweepAtWidth(nl, {}, {}, 256, in), oracle);
    EXPECT_EQ(sweepAtWidth(nl, {}, {}, 512, in), oracle);
}

TEST(LanePlane, FaultySweepBitIdenticalAcrossWidths)
{
    // Random transistor injections exercise the folded faulty
    // tables at every width.
    Netlist nl = buildMultiplierUnsigned(6, FaStyle::Nand9);
    CleanFn clean = cleanMultiplierUnsigned(6);
    Rng rng(12);
    int faulty_trials = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Injection inj =
            injectTransistorDefects(nl, 1 + (trial % 4), rng);
        if (!inj.faults.isStateless())
            continue;
        ++faulty_trials;
        std::vector<uint64_t> in(200);
        for (auto &v : in)
            v = rng.nextUint(1ull << 12);
        auto oracle = sweepAtWidth(nl, inj.faults, clean, 64, in);
        EXPECT_EQ(sweepAtWidth(nl, inj.faults, clean, 256, in), oracle)
            << "trial " << trial;
        EXPECT_EQ(sweepAtWidth(nl, inj.faults, clean, 512, in), oracle)
            << "trial " << trial;
    }
    EXPECT_GT(faulty_trials, 5);
}

TEST(LanePlane, FullPlanesMatchSingleWordOracle)
{
    // Exactly full wide planes (no partial-plane masking in play):
    // the dispatched — on this machine possibly SIMD — kernels must
    // reproduce the single-word 64-lane sweep bit for bit.
    Netlist nl = buildMultiplierUnsigned(6, FaStyle::Nand9);
    Rng rng(13);
    Injection inj = injectTransistorDefects(nl, 2, rng);
    while (!inj.faults.isStateless())
        inj = injectTransistorDefects(nl, 2, rng);

    std::vector<uint64_t> in(512);
    for (auto &v : in)
        v = rng.nextUint(1ull << 12);

    std::vector<uint64_t> oracle(in.size());
    BatchEvaluator ev64(nl, inj.faults, cleanMultiplierUnsigned(6),
                        64);
    for (size_t off = 0; off < in.size(); off += 64)
        ev64.evaluateLanes(in.data() + off, oracle.data() + off, 64);

    for (size_t words : {4u, 8u}) {
        size_t lanes = 64 * words;
        BatchEvaluator ev(nl, inj.faults,
                          cleanMultiplierUnsigned(6), lanes);
        std::vector<uint64_t> out(in.size());
        for (size_t off = 0; off < in.size(); off += lanes)
            ev.evaluateLanes(in.data() + off, out.data() + off,
                             lanes);
        EXPECT_EQ(out, oracle) << "words " << words;
    }
}

} // namespace
} // namespace dtann
