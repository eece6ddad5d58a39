/**
 * @file
 * Wide lane planes: the bit-parallel evaluation width abstraction.
 *
 * A LanePlane holds W consecutive uint64_t words per net (W in
 * {1, 4, 8} -> 64/256/512 lanes), stored strided as
 * netLanes[net * W + w]; bit L of the plane is the net's value in
 * lane L. A sweep runs a program of lane ops, each a folded table op
 * (foldTableOps(), a gate or a clean cell) whose output tables are
 * written in algebraic normal form: an XOR of products of input
 * planes. That is pure bitwise logic, so the same templated kernel
 * serves every width; the W-word inner loops auto-vectorize into
 * ymm/zmm operations when the translation unit is compiled for
 * AVX2/AVX-512.
 *
 * Width and ISA are picked at runtime: DTANN_LANES=64|256|512
 * forces a width (64 keeps the single-word layout as the
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

#include "circuit/netlist.hh"

namespace dtann {

/** Widest supported plane: 8 words = 512 lanes (one zmm register). */
inline constexpr size_t kMaxLaneWords = 8;
inline constexpr size_t kMaxLanes = 64 * kMaxLaneWords;

/**
 * @p table (16 entries) in algebraic normal form: bit m is set when
 * the product of the index bits in m is one of the XOR-ed terms (bit
 * 0: the constant 1). A Moebius transform, one step per index bit.
 */
constexpr uint16_t
algebraicNormalForm(uint16_t table)
{
    uint32_t a = table;
    a ^= (a & 0x5555u) << 1;
    a ^= (a & 0x3333u) << 2;
    a ^= (a & 0x0f0fu) << 4;
    a ^= (a & 0x00ffu) << 8;
    return static_cast<uint16_t>(a);
}

/**
 * One op of a lane program: a folded table op over its first numIn
 * input nets and numOut output nets, output o being the XOR of the
 * input products anf[o] lists (algebraicNormalForm() of its table).
 */
struct LaneOp
{
    NetId in[4];
    NetId out[2];
    uint16_t anf[2];
    uint8_t numIn;
    uint8_t numOut;
};

/** A sweep kernel for one plane width: runs @p count ops in order
 *  over the per-net planes @p net_lanes ([net * W + w]). */
using LaneSweepFn = void (*)(const LaneOp *ops, size_t count,
                             uint64_t *net_lanes);

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
