#pragma once
// Runtime backend selection and the RangeFn adapter that plugs the SIMD
// group kernels into the Recoil 3-phase decoder and the conventional
// partition decoder (§4.4: "implementations (2) and (3) can be selected
// based on the target platform's AVX support").

#include <algorithm>
#include <span>

#include "rans/interleaved.hpp"
#include "simd/kernel_iface.hpp"

namespace recoil::simd {

enum class Backend { Scalar, Avx2, Avx512 };

/// Best backend supported by both this build and this CPU.
Backend pick_backend();
/// A specific backend if available, else the next best.
Backend clamp_backend(Backend requested);
const char* backend_name(Backend b);

/// Type-erased kernel lookup (returns the scalar reference kernel for
/// Backend::Scalar or when the requested backend was not compiled in).
GroupKernel<u8> group_kernel_u8(Backend b);
GroupKernel<u16> group_kernel_u16(Backend b);

template <typename TSym>
GroupKernel<TSym> group_kernel(Backend b) {
    if constexpr (sizeof(TSym) == 1) {
        return group_kernel_u8(b);
    } else {
        return group_kernel_u16(b);
    }
}

/// Drop-in replacement for ScalarRangeFn (see core/recoil_decoder.hpp):
/// decodes the interior whole groups of [lo, hi] with a SIMD kernel and the
/// ragged edges with the scalar per-symbol loop. Mixing is safe at group
/// boundaries; the catch-up pop pass re-establishes the kernels' entry
/// precondition.
///
/// Decoders whose per-symbol id stream is valid only on a window
/// [valid_lo, valid_hi) of absolute positions set the window — the indexed
/// range wire ships exactly the id slice its segments cover, so a
/// full-width id gather at the slice edge would read past the shipped
/// bytes. The vector body then runs only on whole groups that stay a
/// kGuard-byte margin clear of the window's top edge, and everything nearer
/// an edge decodes through the scalar loop, whose id reads are position-
/// exact. The kernels' in-group loads are themselves position-exact (they
/// never reach past the group's last position), so the margin is defensive
/// depth against future kernels with wider gathers, not a correctness
/// requirement of the current ones. The default window is every position.
template <typename TSym>
struct SimdRangeFn {
    Backend backend = pick_backend();
    u64 valid_lo = 0;           ///< first position with a valid id byte
    u64 valid_hi = ~u64{0};     ///< one past the last such position
    /// Vectorized groups end at least this many id bytes before valid_hi.
    static constexpr u64 kGuard = 32;

    void operator()(LaneCursor<Rans32, 32>& cur, std::span<const u16> units,
                    u64 hi, u64 lo, const DecodeTables& t, TSym* out) const {
        if (hi < lo) return;
        if (out == nullptr || backend == Backend::Scalar) {
            decode_positions<Rans32, 32>(cur, units, hi, lo, t, out);
            return;
        }
        const u64 top_aligned = (hi + 1) & ~u64{31};
        // First whole group, clamped below the id window's bottom edge (a
        // no-op when lo >= valid_lo, which callers guarantee; kept as the
        // same defensive depth as the top margin).
        const u64 g_lo = std::max((lo + 31) / 32, (valid_lo + 31) / 32);
        const bool has_groups = top_aligned >= (g_lo + 1) * 32;
        // Last group whose top stays kGuard id bytes clear of valid_hi:
        // need (g+1)*32 + kGuard <= valid_hi.
        if (!has_groups || valid_hi < kGuard + 32 ||
            (valid_hi - kGuard) / 32 < g_lo + 1) {
            // Every position is edge: the plain scalar loop.
            decode_positions<Rans32, 32>(cur, units, hi, lo, t, out);
            return;
        }
        const u64 g_hi =
            std::min(top_aligned / 32 - 1, (valid_hi - kGuard) / 32 - 1);
        // Scalar head: positions [(g_hi+1)*32, hi] (decode runs hi → lo).
        const u64 head_lo = (g_hi + 1) * 32;
        if (head_lo <= hi)
            decode_positions<Rans32, 32>(cur, units, hi, head_lo, t, out);
        scalar_group_pops(cur.x.data(), units.data(), cur.p);  // catch-up
        group_kernel<TSym>(backend)(cur.x.data(), units.data(), units.size(),
                                    cur.p, g_hi, g_lo, t, out);
        // Scalar tail: positions [lo, g_lo*32 - 1].
        if (g_lo * 32 > lo)
            decode_positions<Rans32, 32>(cur, units, g_lo * 32 - 1, lo, t, out);
    }
};

}  // namespace recoil::simd
