#include "simd/dispatch.hpp"

#include <algorithm>
#include <bit>

#include "util/cpu.hpp"

namespace recoil::simd {

void group_pops_underflow() {
    raise("recoil invariant failed: scalar_group_pops: bitstream underflow");
}

template <typename TSym>
void scalar_decode_groups(std::span<const GroupRun<TSym>> runs) {
    for (const GroupRun<TSym>& run : runs) {
        // Locals: the symbol stores may alias anything.
        const DecodeTables t = *run.t;
        const u32 n = t.prob_bits;
        const u32 slot_mask = (u32{1} << n) - 1;
        const GroupSteps s(run);
        u32 x[32];
        std::copy(run.states, run.states + 32, x);
        i64 p = *run.p;
        // One lane's pop, transform and (if `store`) symbol store. Lanes go
        // descending, each popping below the last: ascending needy lanes
        // take ascending addresses ending at p, as the group pop assigns.
        auto lane_step = [&](u64 base, u32 lane, bool store) {
            u32 xi = x[lane];
            if (xi < (u32{1} << 16)) {
                RECOIL_CHECK(p >= 0, "scalar_decode_groups: bitstream underflow");
                xi = (xi << 16) | run.units[p--];
            }
            const u32 slot = xi & slot_mask;
            const DecSymbol ds = t.lookup(base + lane, slot);
            x[lane] = ds.freq * (xi >> n) + slot - ds.cum;
            if (store) run.out[base + lane] = static_cast<TSym>(ds.sym);
        };
        for (u64 i = 0; i < s.steps; ++i) {
            const u64 base = s.base(i);
            if (!s.masked(i)) {
                for (u32 lane = 32; lane-- > 0;) lane_step(base, lane, true);
                continue;
            }
            u32 active = s.in_range(i);
            if (i < s.sync_steps) {
                for (u32 lane = 0; lane < 32; ++lane) {
                    active &= ~(u32{run.entry_steps[lane] > i} << lane);
                    x[lane] = run.entry_steps[lane] == i ? run.entry_states[lane] : x[lane];
                }
            }
            const u32 store = active & s.storing(i);
            for (u32 rest = active; rest != 0;) {
                const u32 lane = 31 - static_cast<u32>(std::countl_zero(rest));
                rest &= ~(u32{1} << lane);
                lane_step(base, lane, (store >> lane & 1) != 0);
            }
        }
        std::copy(x, x + 32, run.states);
        *run.p = p;
    }
}

template void scalar_decode_groups<u8>(std::span<const GroupRun<u8>>);
template void scalar_decode_groups<u16>(std::span<const GroupRun<u16>>);

Backend pick_backend() {
#if defined(RECOIL_HAVE_AVX512_BUILD)
    if (cpu_features().avx512) return Backend::Avx512;
#endif
#if defined(RECOIL_HAVE_AVX2_BUILD)
    if (cpu_features().avx2) return Backend::Avx2;
#endif
    return Backend::Scalar;
}

Backend clamp_backend(Backend requested) {
#if defined(RECOIL_HAVE_AVX512_BUILD)
    if (requested == Backend::Avx512 && cpu_features().avx512) return Backend::Avx512;
#else
    if (requested == Backend::Avx512) requested = Backend::Avx2;
#endif
#if defined(RECOIL_HAVE_AVX2_BUILD)
    if (requested == Backend::Avx2 && cpu_features().avx2) return Backend::Avx2;
#endif
    return Backend::Scalar;
}

const char* backend_name(Backend b) {
    switch (b) {
        case Backend::Avx512: return "AVX512";
        case Backend::Avx2: return "AVX2";
        default: return "Scalar";
    }
}

template <typename TSym>
GroupKernel<TSym> group_kernel(Backend b) {
#if defined(RECOIL_HAVE_AVX512_BUILD)
    if (b == Backend::Avx512 && cpu_features().avx512)
        return static_cast<GroupKernel<TSym>>(&avx512_decode_groups);
#endif
#if defined(RECOIL_HAVE_AVX2_BUILD)
    if (b != Backend::Scalar && cpu_features().avx2)
        return static_cast<GroupKernel<TSym>>(&avx2_decode_groups);
#endif
    return &scalar_decode_groups<TSym>;
}

template GroupKernel<u8> group_kernel<u8>(Backend);
template GroupKernel<u16> group_kernel<u16>(Backend);

}  // namespace recoil::simd
