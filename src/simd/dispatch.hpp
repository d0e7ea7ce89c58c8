#pragma once
// Runtime backend selection and the RangeFn adapter that plugs the SIMD
// group kernels into the Recoil 3-phase decoder and the conventional
// partition decoder (§4.4: "implementations (2) and (3) can be selected
// based on the target platform's AVX support").

#include <algorithm>
#include <span>

#include "core/metadata.hpp"
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
/// its one call form: range_fn(runs) for up to kMaxRangeRuns runs. It hands
/// every run whole to one group-kernel call: a split's synchronization
/// groups, its decoding range and the ragged groups at either end all run in
/// the masked kernel step, the runs in lockstep (simd/kernel_iface.hpp). A
/// run enters and leaves the kernel as a per-symbol cursor; one that reaches
/// its stream's start then ends in the caller's drain_start, as on the
/// scalar path. The backend is the only setting.
template <typename TSym>
struct SimdRangeFn {
    using Run = RangeRun<Rans32, 32, TSym>;

    Backend backend = pick_backend();

    void operator()(std::span<const Run> runs) const {
        RECOIL_CHECK(runs.size() <= kMaxRangeRuns, "SimdRangeFn: at most four runs per call");
        GroupRun<TSym> group[kMaxRangeRuns] = {};
        u32 entry_steps[kMaxRangeRuns][32];
        u32 n = 0;
        for (const Run& r : runs) {
            if (r.hi < r.lo) continue;
            GroupRun<TSym>& g = group[n];
            g = {r.cur->x.data(), r.units.data(), r.units.size(), &r.cur->p, r.t, r.out,
                 r.lo, r.hi, r.hi + 1};
            if (r.entry != nullptr) {
                // A lane joins in its recorded index's group. The wire bounds
                // a lane's distance from the anchor group to 16 bits.
                const SplitRow& sp = *r.entry;
                for (u32 l = 0; l < 32; ++l)
                    entry_steps[n][l] = static_cast<u32>(r.hi / 32 - sp.indices[l] / 32);
                g.store_hi = std::min(sp.min_index, g.store_hi);
                g.entry_states = sp.states.data();
                g.entry_steps = entry_steps[n];
            }
            ++n;
        }
        group_kernel<TSym>(backend)(std::span<const GroupRun<TSym>>(group, n));
    }
};

}  // namespace recoil::simd
