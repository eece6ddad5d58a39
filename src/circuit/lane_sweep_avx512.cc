/**
 * @file
 * AVX-512 lane-sweep kernels. Compiled with -mavx512f (see
 * circuit/CMakeLists.txt): laneSweep<8> becomes one 512-bit
 * zmm operation per logic op. Only reached through laneSweepFor()
 * after a __builtin_cpu_supports("avx512f") check.
 */

#include "circuit/lane_sweep_impl.hh"

namespace dtann {

LaneSweepFn
laneSweepAvx512(size_t words)
{
    switch (words) {
      case 8: return &laneSweep<8>;
      default:
        panic("avx512 lane sweep: unsupported width %zu words",
              words);
    }
}

} // namespace dtann
