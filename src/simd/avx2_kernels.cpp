// AVX2 interleaved group decoder (§4.4 variation (2)): 8 lanes per ymm
// vector, manually unrolled four times for the 32-lane group, up to two
// runs advanced in lockstep by the shared step loop (run_group_steps; a
// call's further runs go two at a time, as a run fills eight of the sixteen
// ymm registers). Without
// VPEXPANDD, renormalization distribution uses a 256-entry permutation LUT
// indexed by the underflow movemask: ascending loaded units are routed to
// ascending needy lanes by VPERMD. A masked group (simd/kernel_iface.hpp)
// holds its active lanes as blendv masks: the underflow masks and hence the
// LUT pops are restricted to them, the transform blends into them, and the
// ids and symbol stores of the active lanes go through a small buffer, as
// AVX2 has no byte-masked load or store.

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <type_traits>

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

/// Decode transform for 8 lanes; `ids` points at their 8 model ids
/// (unused when the tables have none).
inline __m256i transform8(__m256i x, const u8* ids, const DecodeTables& t, u32 n,
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
            const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ids));
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

/// All-ones in lane j where bit j of `bits8` is set.
inline __m256i lanes_of(u32 bits8) {
    const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    return _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits8)), bit), bit);
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
    TSym* out;
    const u32* entry_states;
    const u32* entry_steps;
    GroupSteps s;
    u32 act_bits = ~u32{0}, store_bits = ~u32{0};

    explicit RunRegs(const ScheduledRun<TSym>& sr)
        : RunRegs(*sr.run, sr.s) {}
    RunRegs(const GroupRun<TSym>& r, const GroupSteps& steps)
        : t(*r.t),
          slot_mask(_mm256_set1_epi32(static_cast<int>((u32{1} << t.prob_bits) - 1))),
          units(r.units),
          num_units(static_cast<i64>(r.num_units)),
          p(*r.p),
          out(r.out),
          entry_states(r.entry_states),
          entry_steps(r.entry_steps),
          s(steps) {
        for (int v = 0; v < 4; ++v)
            x[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r.states + 8 * v));
    }

    /// Step i's masks: in a masked group, the lanes joining there take their
    /// entry states, and the active and storing lanes are computed; in an
    /// interior group (one with a masked partner) every lane is both.
    void prepare(u64 i) {
        if (!s.masked(i)) {
            act_bits = store_bits = ~u32{0};
            return;
        }
        act_bits = s.in_range(i);
        if (i < s.sync_steps) {
            const __m256i vi = _mm256_set1_epi32(static_cast<int>(i));
            u32 live = 0;
            for (int v = 0; v < 4; ++v) {
                const __m256i e =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(entry_steps + 8 * v));
                const __m256i joins = _mm256_cmpeq_epi32(e, vi);
                const __m256i state = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(entry_states + 8 * v));
                x[v] = _mm256_blendv_epi8(x[v], state, joins);
                const __m256i is_live = _mm256_cmpeq_epi32(_mm256_max_epu32(e, vi), vi);
                live |= static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(is_live)))
                        << (8 * v);
            }
            act_bits &= live;
        }
        store_bits = act_bits & s.storing(i);
    }

    /// All-ones in vector v's active lanes.
    __m256i active(int v) const { return lanes_of(act_bits >> (8 * v) & 0xff); }

    /// Pop one unit for every (active) lane below L.
    template <bool kMasked>
    void pop() {
        __m256i needy[4];
        u32 mask8[4];
        i64 k = 0;
        for (int v = 0; v < 4; ++v) {
            needy[v] = underflow_mask(x[v]);
            if constexpr (kMasked) needy[v] = _mm256_and_si256(needy[v], active(v));
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
            scalar_group_pops(tmp, units, q, kMasked ? act_bits : ~u32{0});
            p = q;
            for (int v = 0; v < 4; ++v)
                x[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tmp + 8 * v));
        }
    }

    /// Decode transform of step i's group (all four vectors' gathers).
    template <bool kMasked>
    void transform(u64 i) {
        const u64 base = s.base(i);
        alignas(32) u8 ids[32];
        const u8* id_src = ids;
        if (t.ids != nullptr) {
            if constexpr (kMasked) {
                for (u32 lane = 0; lane < 32; ++lane)
                    ids[lane] = (act_bits >> lane & 1) != 0 ? t.ids[base + lane] : 0;
            } else {
                id_src = t.ids + base;
            }
        }
        for (int v = 0; v < 4; ++v) {
            const __m256i next =
                transform8(x[v], id_src + 8 * v, t, t.prob_bits, slot_mask, &sym[v]);
            x[v] = kMasked ? _mm256_blendv_epi8(x[v], next, active(v)) : next;
        }
    }

    /// Store step i's symbols (the storing lanes' only, when kMasked).
    template <bool kMasked>
    void store(u64 i) {
        const u64 base = s.base(i);
        if constexpr (kMasked) {
            alignas(32) u32 syms[32];
            for (int v = 0; v < 4; ++v)
                _mm256_store_si256(reinterpret_cast<__m256i*>(syms + 8 * v), sym[v]);
            for (u32 lane = 0; lane < 32; ++lane)
                if ((store_bits >> lane & 1) != 0)
                    out[base + lane] = static_cast<TSym>(syms[lane]);
        } else {
            for (int v = 0; v < 4; ++v) store_syms(out + base + 8 * v, sym[v]);
        }
    }

    void write_back(const GroupRun<TSym>& r) const {
        for (int v = 0; v < 4; ++v)
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(r.states + 8 * v), x[v]);
        *r.p = p;
    }
};

/// One step of the runs `r` in lockstep: every run's pops, then every
/// run's transform, then every run's stores.
template <bool kMasked, typename... Regs>
__attribute__((always_inline)) inline void step(u64 i, Regs&... r) {
    if constexpr (kMasked) (r.prepare(i), ...);
    (r.template pop<kMasked>(), ...);
    (r.template transform<kMasked>(i), ...);
    (r.template store<kMasked>(i), ...);
}

/// Steps [w.from, w.to) of the runs `r`. Masked and interior steps run in
/// separate loops, so the interior loop holds the unmasked body alone.
template <typename... Regs>
__attribute__((always_inline)) inline void steps(StepWindow w, Regs&... r) {
    u64 i = w.from;
    for (; i < w.plain_from; ++i) step<true>(i, r...);
    for (; i < w.plain_to; ++i) step<false>(i, r...);
    for (; i < w.to; ++i) step<true>(i, r...);
}

/// One body per run count. The one-run body stays out of line: inlined
/// beside the two-run loop it read 14% slower on one stream
/// (BM_DecodeAvx2_n11). The two-run body is inlined into the step loop:
/// out of line, the split decodes read 3-4% slower (BM_DecodeSplits16_Avx2).
template <typename TSym>
__attribute__((noinline)) void lockstep(const ScheduledRun<TSym>* const* live, StepWindow w,
                                        std::integral_constant<std::size_t, 1>) {
    RunRegs<TSym> a(*live[0]);
    steps(w, a);
    a.write_back(*live[0]->run);
}

template <typename TSym>
__attribute__((always_inline)) inline void lockstep(const ScheduledRun<TSym>* const* live,
                                                    StepWindow w,
                                                    std::integral_constant<std::size_t, 2>) {
    RunRegs<TSym> a(*live[0]), b(*live[1]);
    steps(w, a, b);
    a.write_back(*live[0]->run);
    b.write_back(*live[1]->run);
}

template <typename TSym>
void decode_groups(std::span<const GroupRun<TSym>> runs) {
    run_group_steps<2>(runs, [](const ScheduledRun<TSym>* const* live, StepWindow w,
                                auto width) { lockstep(live, w, width); });
}

}  // namespace

void avx2_decode_groups(std::span<const GroupRun<u8>> runs) { decode_groups(runs); }
void avx2_decode_groups(std::span<const GroupRun<u16>> runs) { decode_groups(runs); }

}  // namespace recoil::simd
