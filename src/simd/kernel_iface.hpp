#pragma once
// Contract for vectorized interleaved-decode kernels (§4.4 variations (2) and
// (3)), specialized to the experiment configuration: Rans32 (32-bit states,
// 16-bit units, L = 2^16, prob_bits <= 16 so renormalization is single-step)
// and 32 lanes.
//
// A kernel call advances one or two runs. A run is one stream's decode
// position: its 32 lane states, its unit buffer and cursor, the top group
// still to decode, its tables and its output base. Two runs are independent
// streams (two splits, two partitions, or splits of two chunks); the kernel
// decodes them in lockstep so the second run's gathers issue while the first
// run's transform chain waits, and each run's own pops keep their order.
//
// Discipline (per-group; see rans/interleaved.hpp): for each of `groups`
// groups g, from each run's g_hi downward, the kernel
//   1. applies the decode transform T' to all 32 lanes (positions
//      g*32 .. g*32+31), storing the 32 symbols at out + g*32;
//   2. pops one unit for every lane with state < L, assigning ascending
//      needy lanes to ascending unit addresses [p-K+1, p], then p -= K.
// Step 1 runs for every run before step 2 runs for any. Entry precondition,
// per run: T' already applied for all positions >= (g_hi+1)*32 and no pops
// pending (the caller performs the catch-up pop pass). On exit the caller
// may resume the scalar per-symbol discipline directly: the two disciplines
// pop the same units in the same global order.
//
// Pops take vector loads of 16 (AVX512) or 8 (AVX2) units. Each run tests
// its own buffer edges; a run whose loads would leave its unit buffer pops
// that group through scalar_group_pops instead, which raises a typed
// underflow error exactly as the scalar loop does.

#include <span>

#include "rans/static_model.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::simd {

/// One stream's share of a kernel call.
template <typename TSym>
struct GroupRun {
    u32* states;             ///< 32 lane states, updated in place
    const u16* units;
    u64 num_units;
    i64* p;                  ///< next unit to pop, updated in place
    u64 g_hi;                ///< top group to decode
    const DecodeTables* t;
    TSym* out;               ///< symbol i goes to out[i]
};

/// Decode `groups` groups of each run (one or two runs).
template <typename TSym>
using GroupKernel = void (*)(std::span<const GroupRun<TSym>> runs, u64 groups);

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

/// Reference (portable) group kernel, one run after the other; also
/// differentially tests the per-group discipline against the per-symbol one.
template <typename TSym>
void scalar_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups);

// Architecture-specific kernels; compiled only when the build enables them
// (runtime-dispatched via simd/dispatch.hpp).
#if defined(RECOIL_HAVE_AVX2_BUILD)
template <typename TSym>
void avx2_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups);
#endif
#if defined(RECOIL_HAVE_AVX512_BUILD)
template <typename TSym>
void avx512_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups);
#endif

}  // namespace recoil::simd
