// AVX512 interleaved group decoder (§4.4 variation (3)): 16 lanes per zmm
// vector, two vectors for the 32-lane group, one or two runs advanced in
// lockstep. Requires AVX512 F/BW/DQ/VL. Renormalization distribution uses
// VPEXPANDD: ascending units load ascending into the needy lanes selected by
// the underflow mask.

#include <immintrin.h>

#include "simd/kernel_iface.hpp"

namespace recoil::simd {

namespace {

/// Decode transform for 16 lanes starting at symbol position `base`.
/// Returns the new states; writes symbols as 32-bit values into `sym_out`.
inline __m512i transform16(__m512i x, u64 base, const DecodeTables& t, u32 n,
                           __m512i vslot_mask, __m512i* sym_out) {
    const __m512i slot = _mm512_and_si512(x, vslot_mask);
    __m512i f, c, sym;
    if (t.packed != nullptr) {
        // One gather: entry = ((freq-1)<<20) | (cum<<8) | sym.
        const __m512i e = _mm512_i32gather_epi32(slot, t.packed, 4);
        sym = _mm512_and_si512(e, _mm512_set1_epi32(0xff));
        c = _mm512_and_si512(_mm512_srli_epi32(e, 8), _mm512_set1_epi32(0xfff));
        f = _mm512_add_epi32(_mm512_srli_epi32(e, 20), _mm512_set1_epi32(1));
    } else {
        __m512i idx = slot;
        if (t.ids != nullptr) {
            // Adaptive model: table index = (model_id << n) | slot.
            const __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(t.ids + base));
            const __m512i id = _mm512_cvtepu8_epi32(raw);
            idx = _mm512_add_epi32(_mm512_slli_epi32(id, static_cast<int>(n)), slot);
        }
        const __m512i fc = _mm512_i32gather_epi32(idx, t.fc, 4);
        sym = _mm512_i32gather_epi32(idx, t.sym, 4);
        f = _mm512_add_epi32(_mm512_srli_epi32(fc, 16), _mm512_set1_epi32(1));
        c = _mm512_and_si512(fc, _mm512_set1_epi32(0xffff));
    }
    *sym_out = sym;
    // x' = f * (x >> n) + slot - cum
    const __m512i xq = _mm512_srli_epi32(x, static_cast<int>(n));
    return _mm512_add_epi32(_mm512_mullo_epi32(f, xq), _mm512_sub_epi32(slot, c));
}

inline void store_syms(u8* dst, __m512i sym) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm512_cvtepi32_epi8(sym));
}
inline void store_syms(u16* dst, __m512i sym) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm512_cvtepi32_epi16(sym));
}

/// Vectorized pop: for lanes in `mask`, new state = (x << 16) | unit, with
/// ascending units from `src` feeding ascending needy lanes (VPEXPANDD).
inline __m512i renorm16(__m512i x, __mmask16 mask, const u16* src) {
    const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    const __m512i units32 = _mm512_cvtepu16_epi32(raw);
    const __m512i expanded = _mm512_maskz_expand_epi32(mask, units32);
    const __m512i shifted =
        _mm512_or_si512(_mm512_slli_epi32(x, 16), expanded);
    return _mm512_mask_blend_epi32(mask, x, shifted);
}

/// One run's registers. Run fields are copied in: the symbol stores may
/// alias anything, and locals keep the loop from reloading them after every
/// store.
template <typename TSym>
struct RunRegs {
    DecodeTables t;
    __m512i slot_mask, x0, x1, sym0, sym1;
    const u16* units;
    i64 num_units, p;
    u64 g_hi;
    TSym* out;

    explicit RunRegs(const GroupRun<TSym>& r)
        : t(*r.t),
          slot_mask(_mm512_set1_epi32(static_cast<int>((u32{1} << t.prob_bits) - 1))),
          x0(_mm512_loadu_si512(r.states)),
          x1(_mm512_loadu_si512(r.states + 16)),
          units(r.units),
          num_units(static_cast<i64>(r.num_units)),
          p(*r.p),
          g_hi(r.g_hi),
          out(r.out) {}

    /// Decode transform of group g_hi - i (both vectors' gathers).
    void transform(u64 i) {
        const u64 base = (g_hi - i) * 32;
        x0 = transform16(x0, base, t, t.prob_bits, slot_mask, &sym0);
        x1 = transform16(x1, base + 16, t, t.prob_bits, slot_mask, &sym1);
    }

    /// Store group g_hi - i and pop its units.
    void store_and_pop(u64 i) {
        const u64 base = (g_hi - i) * 32;
        store_syms(out + base, sym0);
        store_syms(out + base + 16, sym1);
        const __m512i vL = _mm512_set1_epi32(static_cast<int>(u32{1} << 16));
        const __mmask16 m0 = _mm512_cmplt_epu32_mask(x0, vL);
        const __mmask16 m1 = _mm512_cmplt_epu32_mask(x1, vL);
        const i64 k0 = __builtin_popcount(m0);
        const i64 k = k0 + __builtin_popcount(m1);
        if (k == 0) return;
        const i64 ubase = p - k + 1;
        if (ubase >= 16 && p + 16 <= num_units) {
            // Fast path: unconditional 16-unit loads stay inside the buffer.
            if (m0) x0 = renorm16(x0, m0, units + ubase);
            if (m1) x1 = renorm16(x1, m1, units + ubase + k0);
            p -= k;
        } else {
            // Buffer edge: spill and use the scalar distribution.
            alignas(64) u32 tmp[32];
            _mm512_storeu_si512(tmp, x0);
            _mm512_storeu_si512(tmp + 16, x1);
            i64 q = p;
            scalar_group_pops(tmp, units, q);
            p = q;
            x0 = _mm512_loadu_si512(tmp);
            x1 = _mm512_loadu_si512(tmp + 16);
        }
    }

    void write_back(const GroupRun<TSym>& r) const {
        _mm512_storeu_si512(r.states, x0);
        _mm512_storeu_si512(r.states + 16, x1);
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
void avx512_decode_groups(std::span<const GroupRun<TSym>> runs, u64 groups) {
    if (runs.size() == 2) {
        decode_runs<2>(runs.data(), groups);
    } else {
        decode_runs<1>(runs.data(), groups);
    }
}

template void avx512_decode_groups<u8>(std::span<const GroupRun<u8>>, u64);
template void avx512_decode_groups<u16>(std::span<const GroupRun<u16>>, u64);

}  // namespace recoil::simd
