#include "simd/dispatch.hpp"

#include "util/cpu.hpp"

namespace recoil::simd {

template <typename TSym>
void scalar_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups) {
    for (const GroupRun<TSym>& run : runs) {
        const DecodeTables& t = *run.t;
        const u32 n = t.prob_bits;
        const u32 slot_mask = (u32{1} << n) - 1;
        for (u64 g = run.g_hi + 1; g-- > run.g_hi + 1 - groups;) {
            const u64 base = g * 32;
            for (u32 lane = 0; lane < 32; ++lane) {
                const u32 x = run.states[lane];
                const u32 slot = x & slot_mask;
                const DecSymbol ds = t.lookup(base + lane, slot);
                run.states[lane] = ds.freq * (x >> n) + slot - ds.cum;
                run.out[base + lane] = static_cast<TSym>(ds.sym);
            }
            scalar_group_pops(run.states, run.units, *run.p);
        }
    }
}

template void scalar_decode_groups<u8>(std::span<const GroupRun<u8>>, u64);
template void scalar_decode_groups<u16>(std::span<const GroupRun<u16>>, u64);

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

GroupKernel<u8> group_kernel_u8(Backend b) {
#if defined(RECOIL_HAVE_AVX512_BUILD)
    if (b == Backend::Avx512 && cpu_features().avx512) return &avx512_decode_groups<u8>;
#endif
#if defined(RECOIL_HAVE_AVX2_BUILD)
    if (b != Backend::Scalar && cpu_features().avx2) return &avx2_decode_groups<u8>;
#endif
    return &scalar_decode_groups<u8>;
}

GroupKernel<u16> group_kernel_u16(Backend b) {
#if defined(RECOIL_HAVE_AVX512_BUILD)
    if (b == Backend::Avx512 && cpu_features().avx512) return &avx512_decode_groups<u16>;
#endif
#if defined(RECOIL_HAVE_AVX2_BUILD)
    if (b != Backend::Scalar && cpu_features().avx2) return &avx2_decode_groups<u16>;
#endif
    return &scalar_decode_groups<u16>;
}

}  // namespace recoil::simd
