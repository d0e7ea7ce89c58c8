#pragma once
// The Recoil 3-phase parallel decoder (§4.1). Each split is an independent
// work item:
//   1. Synchronization phase — walk positions anchor..min_index descending,
//      initializing each lane when its recorded symbol index is reached
//      (state only, no read: the stored state is < L, so the lane's first
//      per-symbol decode pops at exactly the recorded offset) and decoding
//      positions whose lane is live; outputs are discarded.
//   2+3. Decoding and cross-boundary phases, one contiguous range — ordinary
//      interleaved decode from just below the split's own sync section down
//      through the previous split's sync section (its thread discarded
//      those), stopping at the previous min_index. Metadata validation
//      rejects a sync section that crosses the previous anchor, so the two
//      phases always meet.
//
// Pairing: with S splits on L lanes (a pool's workers plus the caller; 1
// without a pool) a decode runs T = max(min(S, L), ceil(S/2)) tasks, and the
// first S - T of them hold two adjacent splits. A task runs phase 1 of each
// of its splits, then hands both phase-2+3 ranges to one RangeFn call, which
// advances them in lockstep: the SIMD group kernel is latency-bound, and a
// second independent stream fills the cycles one stream leaves idle.
//
// The run contract, shared by every decoder (Recoil splits here, the
// conventional baseline's partitions, chunked streams, range wires and the
// GPU simulator): a task builds one or two RangeRuns and makes one call,
// range_fn(std::span<const RangeRun<Cfg, NLanes, TSym>> runs). The default
// RangeFn is the scalar per-symbol loop; simd::SimdRangeFn plugs in the
// group kernels. Every run that reaches its stream's start (split 0, or any
// conventional partition) then ends in drain_start, which checks the end
// state a valid stream must reach: every unit consumed, every used lane
// back at L.

#include <algorithm>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "rans/interleaved.hpp"
#include "util/thread_pool.hpp"

namespace recoil {

/// Scalar range decoder: the default RangeFn. It decodes its runs one
/// after the other.
template <typename Cfg, u32 NLanes, typename TSym>
struct ScalarRangeFn {
    void operator()(std::span<const RangeRun<Cfg, NLanes, TSym>> runs) const {
        for (const auto& r : runs)
            decode_positions<Cfg, NLanes>(*r.cur, r.units, r.hi, r.lo, *r.t, r.out);
    }
};

/// Run body(first, count) over the decode tasks of `items` independent
/// items (splits, or partitions) on `pool`: T = max(min(items, L), ceil(items
/// / 2)) tasks for L lanes, the first items - T of them holding the two
/// adjacent items first and first + 1 (count 2), the rest one (count 1).
template <typename Body>
void for_each_split_task(ThreadPool* pool, u64 items, const Body& body) {
    const u64 lanes = pool == nullptr ? 1 : u64{pool->size()} + 1;
    const u64 tasks = std::max(std::min(items, lanes), (items + 1) / 2);
    const u64 pairs = items - tasks;
    for_each_index(pool, tasks, [&](u64 i) {
        if (i < pairs) {
            body(2 * i, u32{2});
        } else {
            body(pairs + i, u32{1});
        }
    });
}

/// One split of one stream, as a decode task names it. `out` must have
/// meta->num_symbols capacity, indexed by absolute symbol position.
template <typename Cfg, typename TSym>
struct SplitJob {
    std::span<const typename Cfg::UnitT> units;
    const RecoilMetadata* meta;
    const DecodeTables* t;
    u32 k;
    TSym* out;
    RecoilDecodeStats* stats = nullptr;
};

namespace detail {

/// Phase 1 of `job`'s split. Returns false when nothing is left to decode
/// (an empty stream, or a sync section that reaches the stream start, drained
/// here); otherwise `run` (whose cursor the caller set) holds the split's
/// phase-2+3 range.
template <typename Cfg, u32 NLanes, typename TSym>
bool sync_split(const SplitJob<Cfg, TSym>& job, RangeRun<Cfg, NLanes, TSym>& run) {
    const RecoilMetadata& meta = *job.meta;
    RECOIL_CHECK(meta.lanes == NLanes, "recoil_decode_splits: lane count mismatch");
    const u32 S = meta.num_splits();
    const u32 k = job.k;
    RECOIL_CHECK(k < S, "recoil_decode_splits: split index out of range");
    const SplitPoint* prev = (k > 0) ? &meta.splits[k - 1] : nullptr;
    LaneCursor<Cfg, NLanes>& cur = *run.cur;
    RecoilDecodeStats* stats = job.stats;

    if (k == S - 1) {
        // Final split: starts fully initialized from the header's states.
        for (u32 l = 0; l < NLanes; ++l)
            cur.x[l] = static_cast<typename Cfg::StateT>(meta.final_states[l]);
        cur.p = static_cast<i64>(meta.num_units) - 1;
        if (meta.num_symbols == 0) return false;
        run.hi = meta.num_symbols - 1;
    } else {
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
            decode_positions<Cfg, NLanes, TSym>(cur, job.units, pos, pos, *job.t, nullptr);
            if (stats) ++stats->sync_symbols;
        }
        if (sp.min_index == 0) {
            // Degenerate: the sync section reaches the stream start.
            drain_start<Cfg, NLanes>(cur, job.units, meta.num_symbols);
            return false;
        }
        run.hi = sp.min_index - 1;
    }
    run.lo = prev ? prev->min_index : 0;
    if (prev && stats) stats->cross_symbols += prev->sync_symbols();
    run.units = job.units;
    run.t = job.t;
    run.out = job.out;
    return true;
}

}  // namespace detail

/// Decode one or two splits, possibly of different streams: phase 1 of
/// each, then both phase-2+3 ranges through one range_fn call, then the
/// drain of each range that reaches position 0.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void recoil_decode_splits(std::span<const SplitJob<Cfg, TSym>> jobs,
                          const RangeFn& range_fn = {}) {
    RECOIL_CHECK(jobs.size() <= 2, "recoil_decode_splits: at most two splits per task");
    LaneCursor<Cfg, NLanes> cur[2];
    RangeRun<Cfg, NLanes, TSym> run[2] = {};
    u64 num_symbols[2] = {};
    u32 n = 0;
    for (const auto& job : jobs) {
        run[n].cur = &cur[n];
        if (detail::sync_split<Cfg, NLanes, TSym>(job, run[n]))
            num_symbols[n++] = job.meta->num_symbols;
    }
    range_fn(std::span<const RangeRun<Cfg, NLanes, TSym>>(run, n));
    for (u32 i = 0; i < n; ++i)
        if (run[i].lo == 0) drain_start<Cfg, NLanes>(cur[i], run[i].units, num_symbols[i]);
}

/// Decode a full Recoil stream into a caller-provided buffer of
/// meta.num_symbols elements (the benches use this to measure decode work
/// only, as the paper measures kernel execution). `pool == nullptr` decodes
/// splits serially on the calling thread (still exercising the 3-phase
/// logic); otherwise split tasks run across the pool. Either way splits pair
/// up as the header describes. Exceptions from workers are rethrown to the
/// caller.
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

    for_each_split_task(pool, S, [&](u64 first, u32 count) {
        SplitJob<Cfg, TSym> jobs[2] = {};
        for (u32 j = 0; j < count; ++j)
            jobs[j] = {units, &meta, &t, static_cast<u32>(first + j), out.data(),
                       stats ? &per_split[first + j] : nullptr};
        recoil_decode_splits<Cfg, NLanes, TSym>(
            std::span<const SplitJob<Cfg, TSym>>(jobs, count), range_fn);
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
