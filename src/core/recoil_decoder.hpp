#pragma once
// The Recoil 3-phase parallel decoder (§4.1). Each split is an independent
// work item:
//   1. Synchronization phase — walk positions anchor..min_index descending,
//      initializing each lane when its recorded symbol index is reached
//      (state only, no read: the stored state is < L, so the lane's first
//      per-symbol decode pops at exactly the recorded offset) and decoding
//      positions whose lane is live; outputs are discarded.
//   2. Decoding phase — ordinary interleaved decode down to just above the
//      previous split's anchor.
//   3. Cross-boundary phase — decode the previous split's synchronization
//      section (its thread discarded those), stopping at its min_index.
// Split 0 continues to position 0 and drains the first symbol group's units;
// the drain checks the end state a valid stream must reach (drain_start).
//
// The phase-2/3 inner loop is pluggable (`RangeFn`) so the SIMD kernels and
// the GPU simulator reuse this orchestration; the default is the scalar
// per-symbol loop.

#include <exception>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "rans/interleaved.hpp"
#include "util/thread_pool.hpp"

namespace recoil {

/// Scalar range decoder: the default RangeFn.
template <typename Cfg, u32 NLanes, typename TSym>
struct ScalarRangeFn {
    void operator()(LaneCursor<Cfg, NLanes>& cur,
                    std::span<const typename Cfg::UnitT> units, u64 hi, u64 lo,
                    const DecodeTables& t, TSym* out) const {
        decode_positions<Cfg, NLanes>(cur, units, hi, lo, t, out);
    }
};

/// Decode one split (index `k` of `meta.num_splits()`), writing its owned
/// symbol range into `out` (which must have meta.num_symbols capacity).
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void recoil_decode_split(std::span<const typename Cfg::UnitT> units,
                         const RecoilMetadata& meta, const DecodeTables& t,
                         u32 k, TSym* out, RecoilDecodeStats* stats = nullptr,
                         const RangeFn& range_fn = {}) {
    RECOIL_CHECK(meta.lanes == NLanes, "recoil_decode_split: lane count mismatch");
    const u32 S = meta.num_splits();
    RECOIL_CHECK(k < S, "recoil_decode_split: split index out of range");
    const SplitPoint* prev = (k > 0) ? &meta.splits[k - 1] : nullptr;

    LaneCursor<Cfg, NLanes> cur;
    u64 phase2_hi;

    if (k == S - 1) {
        // Final split: starts fully initialized from the header's states.
        for (u32 l = 0; l < NLanes; ++l)
            cur.x[l] = static_cast<typename Cfg::StateT>(meta.final_states[l]);
        cur.p = static_cast<i64>(meta.num_units) - 1;
        if (meta.num_symbols == 0) return;
        phase2_hi = meta.num_symbols - 1;
    } else {
        // Phase 1: synchronization.
        const SplitPoint& sp = meta.splits[k];
        cur.p = static_cast<i64>(sp.offset);
        bool live[NLanes] = {};
        for (u64 pos = sp.anchor_index + 1; pos-- > sp.min_index;) {
            const u32 lane = static_cast<u32>(pos % NLanes);
            if (!live[lane]) {
                if (sp.indices[lane] != pos) {
                    if (stats) ++stats->skipped_positions;
                    continue;  // lane not yet recoverable here
                }
                cur.x[lane] = static_cast<typename Cfg::StateT>(sp.states[lane]);
                live[lane] = true;
            }
            decode_positions<Cfg, NLanes, TSym>(cur, units, pos, pos, t, nullptr);
            if (stats) ++stats->sync_symbols;
        }
        if (sp.min_index == 0) {
            // Degenerate: the sync section reaches the stream start.
            drain_start<Cfg, NLanes>(cur, units, meta.num_symbols);
            return;
        }
        phase2_hi = sp.min_index - 1;
    }

    // Phase 2: normal decoding down to the previous anchor (exclusive).
    const u64 phase2_lo = prev ? prev->anchor_index + 1 : 0;
    if (phase2_hi + 1 > phase2_lo)
        range_fn(cur, units, phase2_hi, phase2_lo, t, out);

    if (prev) {
        // Phase 3: cross-boundary decoding of the previous sync section.
        range_fn(cur, units, prev->anchor_index, prev->min_index, t, out);
        if (stats) stats->cross_symbols += prev->sync_symbols();
        if (prev->min_index == 0) drain_start<Cfg, NLanes>(cur, units, meta.num_symbols);
    } else {
        drain_start<Cfg, NLanes>(cur, units, meta.num_symbols);
    }
}

/// Decode a full Recoil stream into a caller-provided buffer of
/// meta.num_symbols elements (the benches use this to measure decode work
/// only, as the paper measures kernel execution). `pool == nullptr` decodes
/// splits serially on the calling thread (still exercising the 3-phase
/// logic); otherwise splits run across the pool. Exceptions from workers are
/// rethrown to the caller.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void recoil_decode_into(std::span<const typename Cfg::UnitT> units,
                        const RecoilMetadata& meta, const DecodeTables& t,
                        std::span<TSym> out, ThreadPool* pool = nullptr,
                        RecoilDecodeStats* stats = nullptr,
                        const RangeFn& range_fn = {}) {
    RECOIL_CHECK(out.size() >= meta.num_symbols, "recoil_decode_into: buffer too small");
    const u32 S = meta.num_splits();
    std::vector<RecoilDecodeStats> per_split(stats ? S : 0);

    for_each_index(pool, S, [&](u64 k) {
        recoil_decode_split<Cfg, NLanes, TSym>(units, meta, t, static_cast<u32>(k),
                                               out.data(),
                                               stats ? &per_split[k] : nullptr,
                                               range_fn);
    });

    if (stats) {
        for (const auto& s : per_split) {
            stats->sync_symbols += s.sync_symbols;
            stats->cross_symbols += s.cross_symbols;
            stats->skipped_positions += s.skipped_positions;
        }
    }
}

/// Allocating convenience wrapper around recoil_decode_into.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
std::vector<TSym> recoil_decode(std::span<const typename Cfg::UnitT> units,
                                const RecoilMetadata& meta, const DecodeTables& t,
                                ThreadPool* pool = nullptr,
                                RecoilDecodeStats* stats = nullptr,
                                const RangeFn& range_fn = {}) {
    std::vector<TSym> out(meta.num_symbols);
    recoil_decode_into<Cfg, NLanes, TSym>(units, meta, t, std::span<TSym>(out), pool,
                                          stats, range_fn);
    return out;
}

}  // namespace recoil
