// AVX2 interleaved group decoder (§4.4 variation (2)): 8 lanes per ymm
// vector, manually unrolled four times for the 32-lane group. Without
// VPEXPANDD, renormalization distribution uses a 256-entry permutation LUT
// indexed by the underflow movemask: ascending loaded units are routed to
// ascending needy lanes by VPERMD.

#include <immintrin.h>

#include <array>

#include "simd/kernel_iface.hpp"

namespace recoil::simd {

namespace {

/// perm[mask][lane] = rank of `lane` among the set bits of `mask`, i.e. the
/// index of the unit (loaded ascending) that this needy lane receives.
constexpr std::array<std::array<u32, 8>, 256> make_expand_lut() {
    std::array<std::array<u32, 8>, 256> lut{};
    for (u32 mask = 0; mask < 256; ++mask) {
        u32 rank = 0;
        for (u32 lane = 0; lane < 8; ++lane) {
            if (mask & (1u << lane)) {
                lut[mask][lane] = rank++;
            } else {
                lut[mask][lane] = 0;  // ignored (lane not blended)
            }
        }
    }
    return lut;
}

alignas(32) constinit const std::array<std::array<u32, 8>, 256> kExpandLut =
    make_expand_lut();

const __m256i kSignFlip = _mm256_set1_epi32(static_cast<int>(0x80000000u));

/// Unsigned x < 2^16 via sign-flipped signed compare. Returns an all-ones
/// lane mask vector.
inline __m256i underflow_mask(__m256i x) {
    const __m256i lim = _mm256_set1_epi32(static_cast<int>((u32{1} << 16) ^ 0x80000000u));
    return _mm256_cmpgt_epi32(lim, _mm256_xor_si256(x, kSignFlip));
}

inline __m256i transform8(__m256i x, u64 base, const DecodeTables& t, u32 n,
                          __m256i vslot_mask, __m256i* sym_out) {
    const __m256i slot = _mm256_and_si256(x, vslot_mask);
    __m256i f, c, sym;
    if (t.packed != nullptr) {
        const __m256i e = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(t.packed), slot, 4);
        sym = _mm256_and_si256(e, _mm256_set1_epi32(0xff));
        c = _mm256_and_si256(_mm256_srli_epi32(e, 8), _mm256_set1_epi32(0xfff));
        f = _mm256_add_epi32(_mm256_srli_epi32(e, 20), _mm256_set1_epi32(1));
    } else {
        __m256i idx = slot;
        if (t.ids != nullptr) {
            const __m128i raw =
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(t.ids + base));
            const __m256i id = _mm256_cvtepu8_epi32(raw);
            idx = _mm256_add_epi32(_mm256_slli_epi32(id, static_cast<int>(n)), slot);
        }
        const __m256i fc =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(t.fc), idx, 4);
        sym = _mm256_i32gather_epi32(reinterpret_cast<const int*>(t.sym), idx, 4);
        f = _mm256_add_epi32(_mm256_srli_epi32(fc, 16), _mm256_set1_epi32(1));
        c = _mm256_and_si256(fc, _mm256_set1_epi32(0xffff));
    }
    *sym_out = sym;
    const __m256i xq = _mm256_srli_epi32(x, static_cast<int>(n));
    return _mm256_add_epi32(_mm256_mullo_epi32(f, xq), _mm256_sub_epi32(slot, c));
}

/// Narrow 8x u32 (values < 256) to 8 bytes and store.
inline void store_syms(u8* dst, __m256i sym) {
    const __m256i shuf = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1,
                                          -1, -1, -1, -1, -1, 0, 4, 8, 12, -1, -1,
                                          -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i packed = _mm256_shuffle_epi8(sym, shuf);
    const __m256i gathered =
        _mm256_permutevar8x32_epi32(packed, _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                     _mm256_castsi256_si128(gathered));
}

/// Narrow 8x u32 (values < 65536) to 8 u16 and store.
inline void store_syms(u16* dst, __m256i sym) {
    const __m256i shuf = _mm256_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1,
                                          -1, -1, -1, -1, 0, 1, 4, 5, 8, 9, 12, 13,
                                          -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i packed = _mm256_shuffle_epi8(sym, shuf);
    const __m256i gathered = _mm256_permutevar8x32_epi32(
        packed, _mm256_setr_epi32(0, 1, 4, 5, 1, 1, 1, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm256_castsi256_si128(gathered));
}

/// Blend popped units into the needy lanes of one vector. `src` points at
/// this vector's first unit (ascending).
inline __m256i renorm8(__m256i x, __m256i needy, u32 mask8, const u16* src) {
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m256i units32 = _mm256_cvtepu16_epi32(raw);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kExpandLut[mask8].data()));
    const __m256i routed = _mm256_permutevar8x32_epi32(units32, perm);
    const __m256i shifted = _mm256_or_si256(_mm256_slli_epi32(x, 16), routed);
    return _mm256_blendv_epi8(x, shifted, needy);
}

/// One run's registers. Run fields are copied in: the symbol stores may
/// alias anything, and locals keep the loop from reloading them after every
/// store.
template <typename TSym>
struct RunRegs {
    DecodeTables t;
    __m256i slot_mask, x[4], sym[4];
    const u16* units;
    i64 num_units, p;
    u64 g_hi;
    TSym* out;

    explicit RunRegs(const GroupRun<TSym>& r)
        : t(*r.t),
          slot_mask(_mm256_set1_epi32(static_cast<int>((u32{1} << t.prob_bits) - 1))),
          units(r.units),
          num_units(static_cast<i64>(r.num_units)),
          p(*r.p),
          g_hi(r.g_hi),
          out(r.out) {
        for (int v = 0; v < 4; ++v)
            x[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r.states + 8 * v));
    }

    /// Decode transform of group g_hi - i (all four vectors' gathers).
    void transform(u64 i) {
        const u64 base = (g_hi - i) * 32;
        for (int v = 0; v < 4; ++v)
            x[v] = transform8(x[v], base + 8 * v, t, t.prob_bits, slot_mask, &sym[v]);
    }

    /// Store group g_hi - i and pop its units.
    void store_and_pop(u64 i) {
        const u64 base = (g_hi - i) * 32;
        __m256i needy[4];
        u32 mask8[4];
        i64 k = 0;
        for (int v = 0; v < 4; ++v) {
            store_syms(out + base + 8 * v, sym[v]);
            needy[v] = underflow_mask(x[v]);
            mask8[v] = static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(needy[v])));
            k += __builtin_popcount(mask8[v]);
        }
        if (k == 0) return;
        const i64 ubase = p - k + 1;
        if (ubase >= 8 && p + 8 <= num_units) {
            i64 run = ubase;
            for (int v = 0; v < 4; ++v) {
                if (mask8[v]) {
                    x[v] = renorm8(x[v], needy[v], mask8[v], units + run);
                    run += __builtin_popcount(mask8[v]);
                }
            }
            p -= k;
        } else {
            alignas(32) u32 tmp[32];
            for (int v = 0; v < 4; ++v)
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + 8 * v), x[v]);
            i64 q = p;
            scalar_group_pops(tmp, units, q);
            p = q;
            for (int v = 0; v < 4; ++v)
                x[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tmp + 8 * v));
        }
    }

    void write_back(const GroupRun<TSym>& r) const {
        for (int v = 0; v < 4; ++v)
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(r.states + 8 * v), x[v]);
        *r.p = p;
    }
};

/// The kernel body for R runs: every run's gathers issue before any run's
/// stores and pops.
template <int R, typename TSym>
void decode_runs(const GroupRun<TSym>* runs, u64 groups) {
    RunRegs<TSym> a(runs[0]);
    RunRegs<TSym> b(runs[R - 1]);  // unused when R == 1
    for (u64 i = 0; i < groups; ++i) {
        a.transform(i);
        if constexpr (R == 2) b.transform(i);
        a.store_and_pop(i);
        if constexpr (R == 2) b.store_and_pop(i);
    }
    a.write_back(runs[0]);
    if constexpr (R == 2) b.write_back(runs[1]);
}

}  // namespace

template <typename TSym>
void avx2_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups) {
    if (runs.size() == 2) {
        decode_runs<2>(runs.data(), groups);
    } else {
        decode_runs<1>(runs.data(), groups);
    }
}

template void avx2_decode_groups<u8>(std::span<const GroupRun<u8>>, u64);
template void avx2_decode_groups<u16>(std::span<const GroupRun<u16>>, u64);

}  // namespace recoil::simd
