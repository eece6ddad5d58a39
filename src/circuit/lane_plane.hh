/**
 * @file
 * Wide lane planes: the bit-parallel evaluation width abstraction.
 *
 * PR 3's BatchEvaluator packed 64 lanes into one uint64_t per net.
 * A LanePlane widens that to W consecutive uint64_t words per net
 * (W in {1, 4, 8} -> 64/256/512 lanes), stored strided as
 * netLanes[net * W + w]. The gate sweep is pure bitwise logic, so
 * the same templated kernel serves every width; the W-word inner
 * loops auto-vectorize into ymm/zmm operations when the translation
 * unit is compiled for AVX2/AVX-512.
 *
 * Width and ISA are picked at runtime: DTANN_LANES=64|256|512
 * forces a width (64 keeps the original single-word path as the
 * differential oracle), unset means auto (512 when the CPU and
 * compiler support AVX-512, else 256). The kernel for a width is
 * picked from the best translation unit the CPU can execute
 * (AVX-512 > AVX2 > generic unrolled), checked via
 * __builtin_cpu_supports, so one binary serves every machine.
 * Results are bit-identical across all widths and ISAs: the sweep
 * is word-wise bitwise logic with no cross-lane interaction.
 */

#ifndef DTANN_CIRCUIT_LANE_PLANE_HH
#define DTANN_CIRCUIT_LANE_PLANE_HH

#include <cstddef>
#include <cstdint>

#include "circuit/cell_index.hh"
#include "circuit/netlist.hh"

namespace dtann {

/** Widest supported plane: 8 words = 512 lanes (one zmm register). */
inline constexpr size_t kMaxLaneWords = 8;
inline constexpr size_t kMaxLanes = 64 * kMaxLaneWords;

/** valuePlane entry meaning "gate keeps its native function". */
inline constexpr uint32_t kLaneNoOverride = UINT32_MAX;

/**
 * Everything a gate sweep needs, as raw pointers so the kernel can
 * live in per-ISA translation units without seeing BatchEvaluator.
 * The fault pointers are null when haveFaults is false.
 */
struct LaneSweepCtx {
    const Gate *gates;        ///< contiguous gate array
    /** Steps to sweep, or null = every gate: a gate index, or
     *  kCellStep | group for a clean cell (FaultCone::steps) */
    const uint32_t *active;
    size_t count;             ///< steps to sweep
    const Cell *cells;        ///< the netlist's cells, by group
    bool haveFaults;          ///< any fault override installed
    const uint32_t *valuePlane;  ///< per-gate truth-table plane
    const int8_t *inputForce;    ///< per-gate [4] stuck inputs
    const int8_t *outputForce;   ///< per-gate stuck output
    uint64_t *netLanes;       ///< per-net planes, [net * W + w]
};

/** A sweep kernel instantiated for one plane width. */
using LaneSweepFn = void (*)(const LaneSweepCtx &);

/**
 * Lane words resolved from DTANN_LANES and the machine: 1, 4 or 8.
 * Unset/auto picks the widest plane with native SIMD backing (8
 * with AVX-512, else 4). Read live from the environment so tests
 * can sweep widths with setenv().
 */
size_t batchLaneWords();

/** batchLaneWords() in lanes: 64, 256 or 512. */
size_t batchLaneWidth();

/** ISA label backing batchLaneWords() ("avx512", "avx2", ...). */
const char *batchLaneIsa();

/**
 * The sweep kernel for @p words (1, 4 or 8): the widest-ISA
 * translation unit this CPU can execute. words == 1 always uses the
 * generic kernel (a single word gains nothing from SIMD).
 */
LaneSweepFn laneSweepFor(size_t words);

/** ISA label of the kernel laneSweepFor(@p words) returns. */
const char *laneSweepIsaFor(size_t words);

/** Generic (auto-unrolled, no ISA flags) kernels, always present. */
LaneSweepFn laneSweepGeneric(size_t words);

#ifdef DTANN_HAVE_AVX2_TU
/** Kernels compiled with -mavx2; call only when the CPU has AVX2. */
LaneSweepFn laneSweepAvx2(size_t words);
#endif
#ifdef DTANN_HAVE_AVX512_TU
/** Kernels compiled with -mavx512f; requires AVX-512F at runtime. */
LaneSweepFn laneSweepAvx512(size_t words);
#endif

} // namespace dtann

#endif // DTANN_CIRCUIT_LANE_PLANE_HH
