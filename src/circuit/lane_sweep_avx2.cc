/**
 * @file
 * AVX2 lane-sweep kernels. This translation unit is compiled with
 * -mavx2 (see circuit/CMakeLists.txt), so the W-word inner loops in
 * laneSweep<4/8> vectorize into 256-bit ymm operations. Only
 * reached through laneSweepFor() after a __builtin_cpu_supports
 * check, so linking it into a generic binary is safe.
 */

#include "circuit/lane_sweep_impl.hh"

namespace dtann {

LaneSweepFn
laneSweepAvx2(size_t words)
{
    switch (words) {
      case 4: return &laneSweep<4>;
      case 8: return &laneSweep<8>;
      default:
        panic("avx2 lane sweep: unsupported width %zu words", words);
    }
}

} // namespace dtann
