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
/// Instantiated for u8 and u16 symbols.
template <typename TSym>
GroupKernel<TSym> group_kernel(Backend b);

/// Drop-in replacement for ScalarRangeFn (see core/recoil_decoder.hpp), with
/// its one call form: range_fn(runs) for one or two runs. It decodes the
/// interior whole groups of each run's [lo, hi] with a SIMD kernel and the
/// ragged edges with the scalar per-symbol loop. Mixing is safe at group
/// boundaries; the catch-up pop pass re-establishes the kernels' entry
/// precondition. The kernels read per-position ids only at the 32 positions
/// of the group they decode, so a run touches ids on [lo, hi] alone, as the
/// scalar loop does. The backend is the only setting.
///
/// Two runs decode in four steps: each run's scalar head and catch-up pops;
/// the whole groups both runs have, through one lockstep kernel call; the
/// longer run's remaining groups alone; each run's scalar tail. A run that
/// reaches its stream's start then ends in the caller's drain_start, as on
/// the scalar path.
template <typename TSym>
struct SimdRangeFn {
    using Run = RangeRun<Rans32, 32, TSym>;

    Backend backend = pick_backend();

    void operator()(std::span<const Run> runs) const {
        RECOIL_CHECK(runs.size() <= 2, "SimdRangeFn: at most two runs per call");
        GroupRun<TSym> group[2] = {};
        u64 groups[2] = {}, tail_hi[2] = {};
        const Run* owner[2] = {};
        u32 n = 0;
        // Step 1: scalar heads and catch-up pops. A run with no whole group
        // decodes here entirely.
        for (const Run& r : runs) {
            if (r.hi < r.lo) continue;
            const u64 g_lo = (r.lo + 31) / 32;  // first whole group
            const u64 g_end = (r.hi + 1) / 32;  // one past the last
            if (r.out == nullptr || backend == Backend::Scalar || g_end <= g_lo) {
                decode_positions<Rans32, 32>(*r.cur, r.units, r.hi, r.lo, *r.t, r.out);
                continue;
            }
            // Scalar head: positions [g_end*32, hi] (decode runs hi → lo).
            if (g_end * 32 <= r.hi)
                decode_positions<Rans32, 32>(*r.cur, r.units, r.hi, g_end * 32, *r.t, r.out);
            scalar_group_pops(r.cur->x.data(), r.units.data(), r.cur->p);  // catch-up
            group[n] = {r.cur->x.data(), r.units.data(), r.units.size(), &r.cur->p,
                        g_end - 1,       r.t,          r.out};
            groups[n] = g_end - g_lo;
            tail_hi[n] = g_lo * 32;  // one past the scalar tail
            owner[n++] = &r;
        }
        const GroupKernel<TSym> kernel = group_kernel<TSym>(backend);
        // Step 2: the groups both runs have, in lockstep.
        const u64 common = n == 2 ? std::min(groups[0], groups[1]) : 0;
        if (common > 0) kernel(std::span<const GroupRun<TSym>>(group, 2), common);
        // Steps 3 and 4: the longer run's remaining groups, then the tails.
        for (u32 i = 0; i < n; ++i) {
            if (groups[i] > common) {
                group[i].g_hi -= common;
                kernel(std::span<const GroupRun<TSym>>(&group[i], 1), groups[i] - common);
            }
        }
        for (u32 i = 0; i < n; ++i) {
            const Run& r = *owner[i];
            if (tail_hi[i] > r.lo)
                decode_positions<Rans32, 32>(*r.cur, r.units, tail_hi[i] - 1, r.lo, *r.t,
                                             r.out);
        }
    }
};

}  // namespace recoil::simd
