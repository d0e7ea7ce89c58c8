#pragma once
// Interleaved rANS (Giesen, arXiv:1402.3392; paper §2.1–2.2).
//
// Stream discipline (everything else in the library depends on this):
//  * Encoding symbol s_i on lane (i mod NLanes) is [renorm-writes W_i, then
//    transform T_i]. Units are appended in (symbol-group ascending, lane
//    ascending) order because symbols are processed in index order.
//  * Decoding processes positions descending and must pop units in exactly
//    the reverse of write order. The scalar paths use the per-symbol
//    grouping: decode position i = [pop while x_lane < L, then T'_i]. The
//    pops performed before T'_i restore the unit(s) written by W_{i+NLanes}
//    of the same lane. The SIMD paths use the equivalent per-group grouping
//    (see simd/kernel_iface.hpp); the two can be mixed at group boundaries
//    because the `x < L` test is the entire bookkeeping.
//  * Lane states start at Cfg::lower_bound, so a full decode ends with every
//    lane back at lower_bound — a cheap integrity check.
//
// Recoil (src/core) builds on two properties established here:
//  1. every renormalization leaves the lane state < lower_bound (Lemma 3.1),
//     recorded as a RenormEvent;
//  2. a lane initialized with that recorded state, whose first pop happens at
//     the recorded unit offset, reconstructs the exact mid-stream state.

#include <array>
#include <span>
#include <vector>

#include "rans/config.hpp"
#include "rans/renorm_event.hpp"
#include "rans/static_model.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil {

/// Encoded payload of one interleaved group of NLanes rANS coders.
template <typename Cfg = Rans32, u32 NLanes = kLanes>
struct InterleavedBitstream {
    std::vector<typename Cfg::UnitT> units;            ///< renormalization output
    std::array<typename Cfg::StateT, NLanes> final_states{};  ///< stored as-is
    u64 num_symbols = 0;

    u64 byte_size() const noexcept { return units.size() * sizeof(typename Cfg::UnitT); }
};

/// Encode `syms` with NLanes interleaved rANS coders using `model`
/// (StaticModel or IndexedModelSet). If `events` is non-null, every
/// renormalization of symbols >= NLanes is pushed into it as a Recoil split
/// candidate; the sink is anything with push_back(const RenormEvent&) — a
/// RenormEventList to materialize them, or an OnlinePlanner to plan splits
/// on the fly without storing them.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym, typename Model,
          typename EventSink = RenormEventList>
InterleavedBitstream<Cfg, NLanes> interleaved_encode(std::span<const TSym> syms,
                                                     const Model& model,
                                                     EventSink* events = nullptr) {
    using StateT = typename Cfg::StateT;
    using UnitT = typename Cfg::UnitT;
    const u32 n = model.prob_bits();
    RECOIL_CHECK(n <= Cfg::lower_bound_log2, "prob_bits exceeds lower bound log2");

    InterleavedBitstream<Cfg, NLanes> out;
    out.num_symbols = syms.size();
    out.units.reserve(syms.size() / 2 + 64);
    std::array<StateT, NLanes> x;
    x.fill(Cfg::lower_bound);

    // Models exposing division-free entries (EncSymbolFast) take the
    // reciprocal-multiplication path; minimal models (enc_lookup only) use
    // the literal Eq. 1 transform. Both produce identical bitstreams.
    constexpr bool kFast = requires { model.enc_fast(u64{0}, u32{0}); };

    constexpr UnitT unit_mask = static_cast<UnitT>(~UnitT{0});
    auto encode_one = [&](u64 i, u32 freq, auto&& transform) {
        const u32 lane = static_cast<u32>(i % NLanes);
        RECOIL_CHECK(freq > 0, "encoding a symbol with zero frequency");
        // Renormalize (Eq. 3): shift out low units until the encode transform
        // cannot overflow. With unit_bits >= prob_bits this runs at most once.
        const u64 xmax = (u64{Cfg::lower_bound >> n} << Cfg::unit_bits) * freq;
        StateT xi = x[lane];
        bool emitted = false;
        while (xi >= xmax) {
            out.units.push_back(static_cast<UnitT>(xi & unit_mask));
            xi >>= Cfg::unit_bits;
            emitted = true;
        }
        if (emitted && events != nullptr && i >= NLanes) {
            events->push_back(RenormEvent{i - NLanes,
                                          out.units.size() - 1,
                                          static_cast<u32>(xi),
                                          lane});
        }
        // Encode transform (Eq. 1).
        x[lane] = transform(xi);
    };

    for (u64 i = 0; i < syms.size(); ++i) {
        if constexpr (kFast) {
            const auto& es = model.enc_fast(i, static_cast<u32>(syms[i]));
            encode_one(i, es.freq, [&](StateT xi) { return es.encode(xi); });
        } else {
            const EncSymbol es = model.enc_lookup(i, static_cast<u32>(syms[i]));
            encode_one(i, es.freq, [&](StateT xi) {
                return ((xi / es.freq) << n) + es.cum + (xi % es.freq);
            });
        }
    }
    out.final_states = x;
    return out;
}

/// Mutable decode position: lane states plus the (descending) unit cursor.
template <typename Cfg = Rans32, u32 NLanes = kLanes>
struct LaneCursor {
    std::array<typename Cfg::StateT, NLanes> x{};
    i64 p = -1;  ///< index of the next unit to pop
};

/// One stream's decode range: positions [lo, hi], descending from `cur`,
/// each symbol written to out[pos]. A RangeFn (core/recoil_decoder.hpp)
/// decodes one or two independent runs in one call.
template <typename Cfg, u32 NLanes, typename TSym>
struct RangeRun {
    LaneCursor<Cfg, NLanes>* cur;
    std::span<const typename Cfg::UnitT> units;
    u64 hi;
    u64 lo;
    const DecodeTables* t;
    TSym* out;
};

/// Decode positions [lo, hi] descending under the per-symbol discipline,
/// writing out[pos] for each when `out` is non-null (pass nullptr to discard,
/// as the Recoil synchronization phase does). All lanes must already carry
/// valid states for their next position in this range.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym>
inline void decode_positions(LaneCursor<Cfg, NLanes>& cur,
                             std::span<const typename Cfg::UnitT> units,
                             u64 hi, u64 lo, const DecodeTables& t, TSym* out) {
    using StateT = typename Cfg::StateT;
    const u32 n = t.prob_bits;
    const u32 slot_mask = (u32{1} << n) - 1;
    for (u64 pos = hi + 1; pos-- > lo;) {
        const u32 lane = static_cast<u32>(pos % NLanes);
        StateT xi = cur.x[lane];
        // Renormalize (Eq. 4): pops restore the full state written by the
        // same lane's next-higher symbol's renormalization.
        while (xi < Cfg::lower_bound) {
            RECOIL_CHECK(cur.p >= 0, "decode_positions: bitstream underflow");
            xi = static_cast<StateT>((xi << Cfg::unit_bits) |
                                     units[static_cast<u64>(cur.p--)]);
        }
        // Decode transform (Eq. 2).
        const u32 slot = static_cast<u32>(xi) & slot_mask;
        const DecSymbol ds = t.lookup(pos, slot);
        cur.x[lane] = ds.freq * (xi >> n) + slot - ds.cum;
        if (out != nullptr) out[pos] = static_cast<TSym>(ds.sym);
    }
}

/// Pop the units written by the renormalizations of the very first symbol
/// group (positions < NLanes), then check the end state. The per-symbol
/// discipline attributes the pops for W_i to position i - NLanes, which does
/// not exist for the first group, so every decode that reaches position 0
/// must finish with this drain. Lanes are drained descending — the exact
/// reverse of the group-0 write order. Afterwards every unit must be
/// consumed and every used lane back at Cfg::lower_bound, where encoding
/// started it: a corrupted bitstream that decoded without an underflow ends
/// here as a typed error, not as wrong symbols.
template <typename Cfg = Rans32, u32 NLanes = kLanes>
inline void drain_start(LaneCursor<Cfg, NLanes>& cur,
                        std::span<const typename Cfg::UnitT> units, u64 num_symbols) {
    using StateT = typename Cfg::StateT;
    const u32 used = static_cast<u32>(num_symbols < NLanes ? num_symbols : NLanes);
    for (u32 lane = used; lane-- > 0;) {
        StateT xi = cur.x[lane];
        while (xi < Cfg::lower_bound) {
            RECOIL_CHECK(cur.p >= 0, "drain_start: bitstream underflow");
            xi = static_cast<StateT>((xi << Cfg::unit_bits) |
                                     units[static_cast<u64>(cur.p--)]);
        }
        RECOIL_CHECK(xi == Cfg::lower_bound,
                     "drain_start: lane state mismatch at start");
        cur.x[lane] = xi;
    }
    RECOIL_CHECK(cur.p == -1, "drain_start: bitstream not fully consumed");
}

/// Full single-threaded decode of an interleaved bitstream (the paper's
/// baseline (A) when combined with the SIMD kernels; this scalar form is the
/// reference implementation §4.4 variation (1)).
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym>
std::vector<TSym> serial_decode(const InterleavedBitstream<Cfg, NLanes>& bs,
                                const DecodeTables& t) {
    std::vector<TSym> out(bs.num_symbols);
    if (bs.num_symbols == 0) return out;
    LaneCursor<Cfg, NLanes> cur;
    cur.x = bs.final_states;
    cur.p = static_cast<i64>(bs.units.size()) - 1;
    decode_positions<Cfg, NLanes>(cur, std::span<const typename Cfg::UnitT>(bs.units),
                                  bs.num_symbols - 1, 0, t, out.data());
    drain_start<Cfg, NLanes>(cur, std::span<const typename Cfg::UnitT>(bs.units),
                             bs.num_symbols);
    // drain_start checked the used lanes; the unused ones must be at L too.
    for (auto xi : cur.x)
        RECOIL_CHECK(xi == Cfg::lower_bound, "serial_decode: lane state mismatch at start");
    return out;
}

}  // namespace recoil
