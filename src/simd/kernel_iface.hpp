#pragma once
// Contract for vectorized interleaved-decode kernels (§4.4 variations (2) and
// (3)), specialized to the experiment configuration: Rans32 (32-bit states,
// 16-bit units, L = 2^16, prob_bits <= 16 so renormalization is single-step)
// and 32 lanes.
//
// Discipline (per-group; see DESIGN.md §3.1): for each group g from g_hi down
// to g_lo, the kernel
//   1. applies the decode transform T' to all 32 lanes (positions
//      g*32 .. g*32+31), storing the 32 symbols at out + g*32;
//   2. pops one unit for every lane with state < L, assigning ascending
//      needy lanes to ascending unit addresses [p-K+1, p], then p -= K.
// Entry precondition: T' already applied for all positions >= (g_hi+1)*32
// and no pops pending (the caller performs the catch-up pop pass). On exit
// the caller may resume the scalar per-symbol discipline directly: the two
// disciplines pop the same units in the same global order.

#include "rans/static_model.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::simd {

template <typename TSym>
using GroupKernel = void (*)(u32* states, const u16* units, u64 num_units,
                             i64& p, u64 g_hi, u64 g_lo, const DecodeTables& t,
                             TSym* out);

/// Pop one unit for every lane with state < L: ascending needy lanes take
/// ascending addresses ending at p. Used for kernel catch-up and as the
/// kernels' scalar fallback near the ends of the unit buffer. A group that
/// needs more units than remain below p is a typed error, as in the scalar
/// decode_positions.
inline void scalar_group_pops(u32* x, const u16* units, i64& p) {
    u32 needy[32];
    int k = 0;
    for (u32 lane = 0; lane < 32; ++lane) {
        if (x[lane] < (u32{1} << 16)) needy[k++] = lane;
    }
    RECOIL_CHECK(p + 1 >= k, "scalar_group_pops: bitstream underflow");
    const i64 base = p - k + 1;
    for (int i = 0; i < k; ++i) {
        x[needy[i]] = (x[needy[i]] << 16) | units[base + i];
    }
    p -= k;
}

/// Reference (portable) group kernel; also differentially tests the
/// per-group discipline against the per-symbol one.
template <typename TSym>
void scalar_decode_groups(u32* states, const u16* units, u64 num_units, i64& p,
                          u64 g_hi, u64 g_lo, const DecodeTables& t, TSym* out);

// Architecture-specific kernels; compiled only when the build enables them
// (runtime-dispatched via simd/dispatch.hpp).
#if defined(RECOIL_HAVE_AVX2_BUILD)
template <typename TSym>
void avx2_decode_groups(u32* states, const u16* units, u64 num_units, i64& p,
                        u64 g_hi, u64 g_lo, const DecodeTables& t, TSym* out);
#endif
#if defined(RECOIL_HAVE_AVX512_BUILD)
template <typename TSym>
void avx512_decode_groups(u32* states, const u16* units, u64 num_units, i64& p,
                          u64 g_hi, u64 g_lo, const DecodeTables& t, TSym* out);
#endif

}  // namespace recoil::simd
