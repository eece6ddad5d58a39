/**
 * @file
 * Baseline lane-sweep kernels: no ISA flags beyond the project
 * default, so they run on any machine. The W > 1 widths still win
 * over W == 1 by amortizing per-op decode over W words (an
 * unrolled uint64_t[4] plane), and the compiler may vectorize them
 * with whatever the default -m flags allow.
 */

#include "circuit/lane_sweep_impl.hh"

namespace dtann {

LaneSweepFn
laneSweepGeneric(size_t words)
{
    switch (words) {
      case 1: return &laneSweep<1>;
      case 4: return &laneSweep<4>;
      case 8: return &laneSweep<8>;
      default:
        panic("lane sweep: unsupported width %zu words", words);
    }
}

} // namespace dtann
