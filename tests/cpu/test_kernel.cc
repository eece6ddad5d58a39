/**
 * @file
 * Tests for the software kernel and its operation counts.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "cpu/kernel.hh"

namespace dtann {
namespace {

TEST(KernelShape, PaperNetworkCounts)
{
    KernelShape s = KernelShape::of({90, 10, 10});
    EXPECT_EQ(s.synapses, 10u * 91u + 10u * 11u); // 1020
    EXPECT_EQ(s.neurons, 20u);
}

TEST(KernelOps, ScaleWithTopology)
{
    KernelOpCounts small = kernelOpsPerRow({4, 2, 2});
    KernelOpCounts big = kernelOpsPerRow({90, 10, 10});
    EXPECT_LT(small.total(), big.total());
    EXPECT_EQ(big.multiplies,
              KernelShape::of({90, 10, 10}).synapses + 20u);
    EXPECT_EQ(big.loads, 2u * 1020u);
    EXPECT_EQ(big.lutReads, 40u);
}

TEST(Kernel, MatchesFixedMlpBitExact)
{
    // The trimmed-down C model performs the same operations as the
    // hardware (paper Section V) -- verify bit-exact equivalence.
    MlpTopology topo{6, 3, 2};
    DeepWeights w(topo);
    Rng rng(3);
    w.initRandom(rng, 2.0);
    FixedMlp ref(topo);
    ref.setWeights(w);

    // Flatten quantized weights the way the kernel expects.
    std::vector<Fix16> hid_w, out_w;
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i)
            hid_w.push_back(ref.hidWeight(j, i));
    for (int k = 0; k < topo.outputs; ++k)
        for (int jj = 0; jj <= topo.hidden; ++jj)
            out_w.push_back(ref.outWeight(k, jj));

    for (int t = 0; t < 50; ++t) {
        std::vector<Fix16> in(6);
        for (auto &v : in)
            v = Fix16::fromDouble(rng.nextDouble());
        std::vector<Fix16> kernel_out =
            runSoftwareKernel(topo, hid_w, out_w, in);
        std::vector<Fix16> ref_out = ref.forwardFix(in);
        EXPECT_EQ(kernel_out.size(), ref_out.size());
        for (size_t k = 0; k < ref_out.size(); ++k)
            EXPECT_EQ(kernel_out[k].raw(), ref_out[k].raw());
    }
}

} // namespace
} // namespace dtann
