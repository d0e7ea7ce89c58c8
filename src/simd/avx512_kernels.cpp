// AVX512 interleaved group decoder (§4.4 variation (3)): 16 lanes per zmm
// vector, two vectors for the 32-lane group, up to four runs advanced in
// lockstep by the shared step loop (run_group_steps), with one body per run
// count and table layout. Requires AVX512 F/BW/DQ/VL, VBMI, VBMI2 and BMI2
// (util/cpu.hpp's avx512 bit); the kernel's own functions enable them by
// target attribute, as the file may be compiled with F/BW/DQ/VL alone.
//
// Pops: a masked VPSLLD by 16 moves each needy lane's state up, and one
// VPEXPANDW writes the vector's 16 loaded units, ascending, into the low
// words of the ascending needy lanes (PDEP spreads the 16-lane need mask to
// the even word bits); the expand's memory form measured slower on one
// stream. Stores: one VPERMT2B (u8) or VPERMT2W (u16) takes the low byte or
// word of both vectors' symbols, and one store writes the group's 32. The
// wide layouts gather their symbols at the store, after every run's
// freq/cum gathers, which the next step waits on. A masked group
// (simd/kernel_iface.hpp) keeps its active and storing lanes in mask
// registers: entry states load under a mask, the pops and the id load take
// the active mask, the transform's last add merges into the inactive lanes,
// and the symbol store takes the store mask.
//
// The runs of one lockstep share prob_bits and a table layout (packed,
// wide or indexed), as the runs of one stream do, so the interior loop
// holds per run only its two state and two symbol vectors, its unit cursor
// and its output and table bases, beside one slot mask. A run's schedule
// and entry data stay in memory, read by the masked steps alone.

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "simd/kernel_iface.hpp"

#define RECOIL_AVX512_KERNEL                                                 \
    __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx512vbmi," \
                          "avx512vbmi2,bmi2")))
#define RECOIL_AVX512_INLINE RECOIL_AVX512_KERNEL __attribute__((always_inline)) inline

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

/// The table layouts, each with its own bodies: one gather of packed
/// entries, or freq/cum and symbol gathers, indexed by slot or by model id
/// and slot.
enum class Layout { packed, wide, indexed };

Layout layout_of(const DecodeTables& t) {
    if (t.packed != nullptr) return Layout::packed;
    return t.ids != nullptr ? Layout::indexed : Layout::wide;
}

/// VPERMT2B / VPERMT2W indices: element j of the result is the low byte
/// (u8) or word (u16) of lane j of the two symbol vectors.
template <typename TSym>
struct alignas(64) Pick {
    TSym idx[64 / sizeof(TSym)];
};

template <typename TSym>
constexpr Pick<TSym> make_pick() {
    Pick<TSym> p{};
    for (u32 j = 0; j < 32; ++j) p.idx[j] = static_cast<TSym>(j * 4 / sizeof(TSym));
    return p;
}

template <typename TSym>
constexpr Pick<TSym> kPick = make_pick<TSym>();

/// 16 units from `src`, in the low half of a vector.
RECOIL_AVX512_INLINE __m512i load16(const u16* src) {
    return _mm512_castsi256_si512(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
}

/// What the runs of one lockstep share.
struct Shared {
    __m512i slot_mask;
    __m128i n;  ///< prob_bits, as a shift count

    RECOIL_AVX512_INLINE explicit Shared(u32 prob_bits)
        : slot_mask(_mm512_set1_epi32(static_cast<int>((u32{1} << prob_bits) - 1))),
          n(_mm_cvtsi32_si128(static_cast<int>(prob_bits))) {}
};

/// One run's interior working set. Run fields are copied in: the symbol
/// stores may alias anything, and locals keep the loop from reloading them
/// after every store.
template <typename TSym, Layout L>
struct Run {
    /// States, and what the store reads the symbols from: the packed
    /// entries, or the wide layouts' table indices.
    __m512i x0, x1, key0, key1;
    const u16* units;
    i64 p, num_units;
    TSym* out;
    const u32* tab;   ///< packed, or fc
    const u32* syms;  ///< the wide layouts' symbol table
    const u8* ids;    ///< the indexed layout's model ids
    u64 top;          ///< position of step 0's group

    RECOIL_AVX512_INLINE void load(const ScheduledRun<TSym>& sr) {
        const GroupRun<TSym>& r = *sr.run;
        x0 = _mm512_loadu_si512(r.states);
        x1 = _mm512_loadu_si512(r.states + 16);
        units = r.units;
        p = *r.p;
        num_units = static_cast<i64>(r.num_units);
        out = r.out;
        tab = L == Layout::packed ? r.t->packed : r.t->fc;
        syms = r.t->sym;
        ids = r.t->ids;
        top = sr.s.base(0);
    }

    RECOIL_AVX512_INLINE void save(const GroupRun<TSym>& r) const {
        _mm512_storeu_si512(r.states, x0);
        _mm512_storeu_si512(r.states + 16, x1);
        *r.p = p;
    }

    u64 base(u64 i) const noexcept { return top - 32 * i; }

    /// Step i's active and storing lanes: all of them in a step interior to
    /// this run; in a masked step the lanes inside the run's range and past
    /// their entry, which the lanes joining in step i take.
    RECOIL_AVX512_INLINE void prepare(const ScheduledRun<TSym>& sr, u64 i, u32& act,
                                      u32& st) {
        const GroupSteps& s = sr.s;
        if (!s.masked(i)) {
            act = st = ~u32{0};
            return;
        }
        u32 active = s.in_range(i);
        if (i < s.sync_steps) {
            const GroupRun<TSym>& r = *sr.run;
            const __m512i vi = _mm512_set1_epi32(static_cast<int>(i));
            const __m512i e0 = _mm512_loadu_si512(r.entry_steps);
            const __m512i e1 = _mm512_loadu_si512(r.entry_steps + 16);
            x0 = _mm512_mask_loadu_epi32(x0, _mm512_cmpeq_epi32_mask(e0, vi), r.entry_states);
            x1 = _mm512_mask_loadu_epi32(x1, _mm512_cmpeq_epi32_mask(e1, vi),
                                         r.entry_states + 16);
            active &= u32{_mm512_cmple_epu32_mask(e0, vi)} |
                      u32{_mm512_cmple_epu32_mask(e1, vi)} << 16;
        }
        act = active;
        st = active & s.storing(i);
    }

    /// Pop one unit for every (active) lane below L.
    template <bool kMasked>
    RECOIL_AVX512_INLINE void pop(u32 act) {
        const __m512i vL = _mm512_set1_epi32(static_cast<int>(u32{1} << 16));
        const __mmask16 m0 =
            kMasked ? _mm512_mask_cmplt_epu32_mask(static_cast<__mmask16>(act), x0, vL)
                    : _mm512_cmplt_epu32_mask(x0, vL);
        const __mmask16 m1 =
            kMasked ? _mm512_mask_cmplt_epu32_mask(static_cast<__mmask16>(act >> 16), x1, vL)
                    : _mm512_cmplt_epu32_mask(x1, vL);
        const i64 k0 = __builtin_popcount(m0);
        const i64 k = k0 + __builtin_popcount(m1);
        const i64 ubase = p - k + 1;
        if (ubase >= 16 && p + 16 < num_units) [[likely]] {
            // Each vector's 16-unit load starts at its first unit, at most
            // p + 1, so it ends inside the buffer even with no lane to fill.
            x0 = _mm512_mask_slli_epi32(x0, m0, x0, 16);
            x0 = _mm512_mask_expand_epi16(x0, _pdep_u32(m0, 0x55555555u), load16(units + ubase));
            x1 = _mm512_mask_slli_epi32(x1, m1, x1, 16);
            x1 = _mm512_mask_expand_epi16(x1, _pdep_u32(m1, 0x55555555u),
                                          load16(units + ubase + k0));
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

    /// Decode transform of the 16 lanes at position `base`: returns their
    /// new states (lanes outside `act` keep `x` when kMasked) and sets `key`
    /// to their packed entries or table indices.
    template <bool kMasked>
    RECOIL_AVX512_INLINE __m512i transform16(__m512i x, __mmask16 act, u64 base,
                                             const Shared& c, __m512i& key) const {
        const __m512i slot = _mm512_and_si512(x, c.slot_mask);
        __m512i f, cum;
        if constexpr (L == Layout::packed) {
            // One gather: entry = ((freq-1)<<20) | (cum<<8) | sym.
            const __m512i e = _mm512_i32gather_epi32(slot, tab, 4);
            key = e;
            cum = _mm512_and_si512(_mm512_srli_epi32(e, 8), _mm512_set1_epi32(0xfff));
            f = _mm512_add_epi32(_mm512_srli_epi32(e, 20), _mm512_set1_epi32(1));
        } else {
            __m512i idx = slot;
            if constexpr (L == Layout::indexed) {
                // Table index = (model_id << n) | slot. Inactive lanes read
                // no id and use model 0.
                const __m128i raw =
                    kMasked ? _mm_maskz_loadu_epi8(act, lane_base(ids, base))
                            : _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + base));
                idx = _mm512_add_epi32(_mm512_sll_epi32(_mm512_cvtepu8_epi32(raw), c.n), slot);
            }
            // The symbols are gathered at the store, after every run's
            // fc gathers, which the next step waits on.
            const __m512i fc = _mm512_i32gather_epi32(idx, tab, 4);
            key = idx;
            f = _mm512_add_epi32(_mm512_srli_epi32(fc, 16), _mm512_set1_epi32(1));
            cum = _mm512_and_si512(fc, _mm512_set1_epi32(0xffff));
        }
        // x' = f * (x >> n) + slot - cum
        const __m512i scaled = _mm512_mullo_epi32(f, _mm512_srl_epi32(x, c.n));
        const __m512i rest = _mm512_sub_epi32(slot, cum);
        return kMasked ? _mm512_mask_add_epi32(x, act, scaled, rest)
                       : _mm512_add_epi32(scaled, rest);
    }

    template <bool kMasked>
    RECOIL_AVX512_INLINE void transform(u64 i, u32 act, const Shared& c) {
        const u64 b = base(i);
        x0 = transform16<kMasked>(x0, static_cast<__mmask16>(act), b, c, key0);
        x1 = transform16<kMasked>(x1, static_cast<__mmask16>(act >> 16), b + 16, c, key1);
    }

    /// Store step i's symbols (the storing lanes' only, when kMasked): the
    /// low byte or word of each lane's packed entry or gathered symbol.
    template <bool kMasked>
    RECOIL_AVX512_INLINE void store(u64 i, u32 st, __m512i pick) const {
        const u64 b = base(i);
        __m512i sym0 = key0, sym1 = key1;
        if constexpr (L != Layout::packed) {
            sym0 = _mm512_i32gather_epi32(key0, syms, 4);
            sym1 = _mm512_i32gather_epi32(key1, syms, 4);
        }
        if constexpr (sizeof(TSym) == 1) {
            const __m256i s = _mm512_castsi512_si256(_mm512_permutex2var_epi8(sym0, pick, sym1));
            if constexpr (kMasked) {
                _mm256_mask_storeu_epi8(lane_base(out, b), st, s);
            } else {
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b), s);
            }
        } else {
            __m512i s = _mm512_permutex2var_epi16(sym0, pick, sym1);
            // A packed entry's low word holds cum's low bits above the symbol.
            if constexpr (L == Layout::packed) s = _mm512_and_si512(s, _mm512_set1_epi16(0xff));
            if constexpr (kMasked) {
                _mm512_mask_storeu_epi16(lane_base(out, b), st, s);
            } else {
                _mm512_storeu_si512(out + b, s);
            }
        }
    }
};

/// One step of the runs r[k...] in lockstep: every run's pops, then every
/// run's transform, then every run's stores. A masked step first reads each
/// run's masks and entries from its schedule.
template <bool kMasked, typename TSym, Layout L, std::size_t... k>
RECOIL_AVX512_INLINE void step(Run<TSym, L>* r, const ScheduledRun<TSym>* const* live, u64 i,
                               const Shared& c, __m512i pick, std::index_sequence<k...>) {
    u32 act[sizeof...(k)] = {}, st[sizeof...(k)] = {};
    if constexpr (kMasked) (r[k].prepare(*live[k], i, act[k], st[k]), ...);
    (r[k].template pop<kMasked>(act[k]), ...);
    (r[k].template transform<kMasked>(i, act[k], c), ...);
    (r[k].template store<kMasked>(i, st[k], pick), ...);
}

/// Steps [w.from, w.to) of the runs live[k...]; one body per run count.
template <typename TSym, Layout L, std::size_t... k>
RECOIL_AVX512_KERNEL __attribute__((noinline)) void lockstep(
    const ScheduledRun<TSym>* const* live, StepWindow w, std::index_sequence<k...> ks) {
    const Shared c(live[0]->run->t->prob_bits);
    const __m512i pick = _mm512_load_si512(&kPick<TSym>);
    Run<TSym, L> r[sizeof...(k)];
    (r[k].load(*live[k]), ...);
    u64 i = w.from;
    for (; i < w.plain_from; ++i) step<true>(r, live, i, c, pick, ks);
    for (; i < w.plain_to; ++i) step<false>(r, live, i, c, pick, ks);
    for (; i < w.to; ++i) step<true>(r, live, i, c, pick, ks);
    (r[k].save(*live[k]->run), ...);
}

/// The runs of one layout through the shared step loop (run_group_steps):
/// packed runs up to four at a time, the wide layouts two at a time (four
/// read 3-6% slower on the latent payload at 16 splits,
/// BM_DecodeLatent_Avx512/16).
template <typename TSym, Layout L>
void run_layout(std::span<const GroupRun<TSym>> runs) {
    constexpr std::size_t kWidth = L == Layout::packed ? 4 : 2;
    run_group_steps<kWidth>(runs, [](const ScheduledRun<TSym>* const* live, StepWindow w,
                                     auto width) {
        lockstep<TSym, L>(live, w, std::make_index_sequence<decltype(width)::value>{});
    });
}

/// Runs share a lockstep when they share prob_bits and table layout, as
/// the runs of one stream do.
template <typename TSym>
void decode_groups(std::span<const GroupRun<TSym>> runs) {
    GroupRun<TSym> same[kMaxRangeRuns];
    u32 left = (u32{1} << runs.size()) - 1;
    while (left != 0) {
        const GroupRun<TSym>& lead = runs[static_cast<std::size_t>(std::countr_zero(left))];
        const Layout layout = layout_of(*lead.t);
        std::size_t n = 0;
        for (std::size_t k = 0; k < runs.size(); ++k) {
            if ((left >> k & 1) != 0 && runs[k].t->prob_bits == lead.t->prob_bits &&
                layout_of(*runs[k].t) == layout) {
                same[n++] = runs[k];
                left &= ~(u32{1} << k);
            }
        }
        const std::span<const GroupRun<TSym>> set(same, n);
        switch (layout) {
            case Layout::packed: run_layout<TSym, Layout::packed>(set); break;
            case Layout::wide: run_layout<TSym, Layout::wide>(set); break;
            case Layout::indexed: run_layout<TSym, Layout::indexed>(set); break;
        }
    }
}

}  // namespace

void avx512_decode_groups(std::span<const GroupRun<u8>> runs) { decode_groups(runs); }
void avx512_decode_groups(std::span<const GroupRun<u16>> runs) { decode_groups(runs); }

}  // namespace recoil::simd
