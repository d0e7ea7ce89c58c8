// AVX512 interleaved group decoder (§4.4 variation (3)): 16 lanes per zmm
// vector, two vectors for the 32-lane group, one or two runs advanced in
// lockstep. Requires AVX512 F/BW/DQ/VL. Renormalization distribution uses
// VPEXPANDD: ascending units load ascending into the needy lanes selected by
// the underflow mask. A masked group (simd/kernel_iface.hpp) keeps its
// active and storing lanes in mask registers: entry states load under a
// mask, the pops and the id load take the active mask, the transform's last
// add merges into the inactive lanes, and the symbol stores take the store
// mask.

#include <immintrin.h>

#include <cstdint>

#include "simd/kernel_iface.hpp"

namespace recoil::simd {

namespace {

/// `p` + i, formed through integer arithmetic: a masked access names a
/// group's first position, which may lie before the buffer it reaches into
/// (an output or id slice rebased to its first position), and only the
/// active lanes are read or written.
template <typename T>
T* lane_base(T* p, u64 i) {
    return reinterpret_cast<T*>(reinterpret_cast<std::uintptr_t>(p) +
                                static_cast<std::uintptr_t>(i) * sizeof(T));
}

/// Decode transform for 16 lanes starting at symbol position `base`.
/// Returns the new states, in which lanes outside `active` keep `x` when
/// kMasked; writes symbols as 32-bit values into `sym_out`.
template <bool kMasked>
inline __m512i transform16(__m512i x, __mmask16 active, u64 base, const DecodeTables& t,
                           u32 n, __m512i vslot_mask, __m512i* sym_out) {
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
            // Adaptive model: table index = (model_id << n) | slot. Inactive
            // lanes read no id and use model 0.
            const __m128i raw =
                kMasked ? _mm_maskz_loadu_epi8(active, lane_base(t.ids, base))
                        : _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.ids + base));
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
    const __m512i scaled = _mm512_mullo_epi32(f, xq);
    const __m512i rest = _mm512_sub_epi32(slot, c);
    return kMasked ? _mm512_mask_add_epi32(x, active, scaled, rest)
                   : _mm512_add_epi32(scaled, rest);
}

inline void store_syms(u8* dst, __m512i sym) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm512_cvtepi32_epi8(sym));
}
inline void store_syms(u16* dst, __m512i sym) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm512_cvtepi32_epi16(sym));
}
inline void store_syms(u8* dst, __mmask16 m, __m512i sym) {
    _mm512_mask_cvtepi32_storeu_epi8(dst, m, sym);
}
inline void store_syms(u16* dst, __mmask16 m, __m512i sym) {
    _mm512_mask_cvtepi32_storeu_epi16(dst, m, sym);
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
    TSym* out;
    const u32* entry_states;
    const u32* entry_steps;
    GroupSteps s;
    __mmask16 act0 = 0xffff, act1 = 0xffff, st0 = 0xffff, st1 = 0xffff;

    explicit RunRegs(const GroupRun<TSym>& r)
        : t(*r.t),
          slot_mask(_mm512_set1_epi32(static_cast<int>((u32{1} << t.prob_bits) - 1))),
          x0(_mm512_loadu_si512(r.states)),
          x1(_mm512_loadu_si512(r.states + 16)),
          units(r.units),
          num_units(static_cast<i64>(r.num_units)),
          p(*r.p),
          out(r.out),
          entry_states(r.entry_states),
          entry_steps(r.entry_steps),
          s(r) {}

    /// Step i's masks: in a masked group, the lanes joining there take their
    /// entry states, and the active and storing lanes are computed; in an
    /// interior group (one with a masked partner) every lane is both.
    void prepare(u64 i) {
        if (!s.masked(i)) {
            act0 = act1 = st0 = st1 = 0xffff;
            return;
        }
        u32 active = s.in_range(i);
        if (i < s.sync_steps) {
            const __m512i vi = _mm512_set1_epi32(static_cast<int>(i));
            const __m512i e0 = _mm512_loadu_si512(entry_steps);
            const __m512i e1 = _mm512_loadu_si512(entry_steps + 16);
            x0 = _mm512_mask_loadu_epi32(x0, _mm512_cmpeq_epi32_mask(e0, vi), entry_states);
            x1 = _mm512_mask_loadu_epi32(x1, _mm512_cmpeq_epi32_mask(e1, vi),
                                         entry_states + 16);
            active &= static_cast<u32>(_mm512_cmple_epu32_mask(e0, vi)) |
                      static_cast<u32>(_mm512_cmple_epu32_mask(e1, vi)) << 16;
        }
        const u32 store = active & s.storing(i);
        act0 = static_cast<__mmask16>(active);
        act1 = static_cast<__mmask16>(active >> 16);
        st0 = static_cast<__mmask16>(store);
        st1 = static_cast<__mmask16>(store >> 16);
    }

    /// Pop one unit for every (active) lane below L.
    template <bool kMasked>
    void pop() {
        const __m512i vL = _mm512_set1_epi32(static_cast<int>(u32{1} << 16));
        const __mmask16 m0 = kMasked ? _mm512_mask_cmplt_epu32_mask(act0, x0, vL)
                                     : _mm512_cmplt_epu32_mask(x0, vL);
        const __mmask16 m1 = kMasked ? _mm512_mask_cmplt_epu32_mask(act1, x1, vL)
                                     : _mm512_cmplt_epu32_mask(x1, vL);
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
            scalar_group_pops(tmp, units, q, u32{m0} | u32{m1} << 16);
            p = q;
            x0 = _mm512_loadu_si512(tmp);
            x1 = _mm512_loadu_si512(tmp + 16);
        }
    }

    /// Decode transform of step i's group (both vectors' gathers).
    template <bool kMasked>
    void transform(u64 i) {
        const u64 base = s.base(i);
        x0 = transform16<kMasked>(x0, act0, base, t, t.prob_bits, slot_mask, &sym0);
        x1 = transform16<kMasked>(x1, act1, base + 16, t, t.prob_bits, slot_mask, &sym1);
    }

    /// Store step i's symbols (the storing lanes' only, when kMasked).
    template <bool kMasked>
    void store(u64 i) {
        const u64 base = s.base(i);
        if constexpr (kMasked) {
            store_syms(lane_base(out, base), st0, sym0);
            store_syms(lane_base(out, base + 16), st1, sym1);
        } else {
            store_syms(out + base, sym0);
            store_syms(out + base + 16, sym1);
        }
    }

    void write_back(const GroupRun<TSym>& r) const {
        _mm512_storeu_si512(r.states, x0);
        _mm512_storeu_si512(r.states + 16, x1);
        *r.p = p;
    }
};

}  // namespace

template <typename TSym>
void avx512_decode_groups(std::span<const GroupRun<TSym>> runs) {
    run_group_steps<RunRegs<TSym>>(runs);
}

template void avx512_decode_groups<u8>(std::span<const GroupRun<u8>>);
template void avx512_decode_groups<u16>(std::span<const GroupRun<u16>>);

}  // namespace recoil::simd
