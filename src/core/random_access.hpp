#pragma once
// Random access: decode only a sub-range of symbols from a Recoil stream.
// A capability that falls out of the split metadata: the splits covering
// [lo, hi) are independently decodable, so a client can fetch/decode only
// the bitstream region it needs — impossible with a plain interleaved rANS
// stream, and one more reason the metadata records symbol indices (§3.1).

#include <algorithm>
#include <vector>

#include "core/recoil_decoder.hpp"

namespace recoil {

/// The split indices and covered symbol span needed to decode [lo, hi).
struct RangePlan {
    u32 first_split = 0;
    u32 last_split = 0;   ///< inclusive
    u64 cover_lo = 0;     ///< first symbol the chosen splits produce
    u64 cover_hi = 0;     ///< one past the last
};

/// Which splits must run to produce symbols [lo, hi)?
/// Thread k *writes* positions [min_{k-1}, min_k): its decoding phase covers
/// (anchor_{k-1}, min_k) and its cross-boundary phase [min_{k-1},
/// anchor_{k-1}]; split k's own sync section [min_k, anchor_k] is written by
/// thread k+1. So the owner of position p is the first split whose
/// min_index exceeds p.
inline RangePlan plan_range(const RecoilMetadata& meta, u64 lo, u64 hi) {
    RECOIL_CHECK(lo < hi && hi <= meta.num_symbols, "plan_range: bad range");
    const u32 S = meta.num_splits();
    // min_index is strictly ascending (validated), so the first split whose
    // min_index exceeds pos is a binary search over that column, not an
    // O(S) scan: this runs on every range request and S reaches 2176+.
    const std::vector<u64>& mins = meta.splits.min_index;
    auto owner = [&](u64 pos) {  // S - 1 past the end
        return static_cast<u32>(std::upper_bound(mins.begin(), mins.end(), pos) - mins.begin());
    };
    RangePlan plan;
    plan.first_split = owner(lo);
    plan.last_split = owner(hi - 1);
    plan.cover_lo = plan.first_split == 0 ? 0 : mins[plan.first_split - 1];
    plan.cover_hi = plan.last_split >= S - 1 ? meta.num_symbols : mins[plan.last_split];
    return plan;
}

/// One past the highest symbol position the plan's covering splits *touch*.
/// Decoding writes only [cover_lo, cover_hi), but the last covering split's
/// synchronization phase decodes (and discards) positions up to its anchor,
/// so per-position side information — an indexed model's ids — must be
/// available up to here, not just cover_hi.
inline u64 plan_touch_hi(const RecoilMetadata& meta, const RangePlan& plan) {
    return plan.last_split >= meta.num_splits() - 1
               ? meta.num_symbols
               : meta.splits.anchor_index[plan.last_split] + 1;
}

/// Decode splits [k_lo, k_hi] of `meta` into a fresh buffer covering
/// absolute symbol positions [cover_lo, cover_hi). Decode paths index the
/// output by absolute symbol position; the buffer is rebased so position
/// cover_lo lands at index 0. Every write of the chosen splits falls inside
/// [cover_lo, cover_hi), so all dereferences are in bounds; the rebased
/// pointer itself is formed via integer arithmetic to stay clear of
/// out-of-bounds pointer UB. Shared by recoil_decode_range and the serve
/// subsystem's range-wire decoder. Any RangeFn reads per-position side
/// information (an indexed model's ids) only at the positions the chosen
/// splits touch, [cover_lo, plan_touch_hi), so a slice of ids on exactly
/// those positions suffices. The splits group into tasks as in
/// recoil_decode_into.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
std::vector<TSym> recoil_decode_cover(std::span<const typename Cfg::UnitT> units,
                                      const RecoilMetadata& meta,
                                      const DecodeTables& t, u32 k_lo, u32 k_hi,
                                      u64 cover_lo, u64 cover_hi,
                                      ThreadPool* pool = nullptr,
                                      const RangeFn& range_fn = {}) {
    std::vector<TSym> cover(cover_hi - cover_lo);
    TSym* rebased = reinterpret_cast<TSym*>(
        reinterpret_cast<std::uintptr_t>(cover.data()) -
        static_cast<std::uintptr_t>(cover_lo) * sizeof(TSym));
    for_each_split_task(pool, u64{k_hi} - k_lo + 1, [&](u64 first, u32 count) {
        SplitJob<Cfg, TSym> jobs[kMaxRangeRuns] = {};
        for (u32 j = 0; j < count; ++j)
            jobs[j] = {units, &meta, &t, k_lo + static_cast<u32>(first + j), rebased};
        recoil_decode_splits<Cfg, NLanes, TSym>(
            std::span<const SplitJob<Cfg, TSym>>(jobs, count), range_fn);
    });
    return cover;
}

/// Decode symbols [lo, hi) only. Cost is proportional to the covering
/// splits, not the stream; with M splits over N symbols, expect
/// ~(hi - lo) + N/M symbols of work.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
std::vector<TSym> recoil_decode_range(std::span<const typename Cfg::UnitT> units,
                                      const RecoilMetadata& meta,
                                      const DecodeTables& t, u64 lo, u64 hi,
                                      ThreadPool* pool = nullptr,
                                      const RangeFn& range_fn = {}) {
    const RangePlan plan = plan_range(meta, lo, hi);
    auto cover = recoil_decode_cover<Cfg, NLanes, TSym>(
        units, meta, t, plan.first_split, plan.last_split, plan.cover_lo,
        plan.cover_hi, pool, range_fn);
    return std::vector<TSym>(cover.begin() + static_cast<std::ptrdiff_t>(lo - plan.cover_lo),
                             cover.begin() + static_cast<std::ptrdiff_t>(hi - plan.cover_lo));
}

}  // namespace recoil
