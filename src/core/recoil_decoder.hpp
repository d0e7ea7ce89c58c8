#pragma once
// The Recoil 3-phase parallel decoder (§4.1). Each split is one run of the
// shared run contract (rans/interleaved.hpp's RangeRun), entered at its
// split point and decoded from its anchor down to the previous split's
// min_index:
//   1. Synchronization phase — positions anchor..min_index. Lane l joins at
//      its recorded symbol index with its recorded state (state only, no
//      read: the stored state is < L, so the lane's first decode pops at
//      exactly the recorded offset); positions above a lane's index are
//      skipped, and every output is discarded.
//   2+3. Decoding and cross-boundary phases — the same run continues with
//      every lane live from min_index - 1 down through the previous split's
//      sync section (its thread discarded those) and stores its symbols,
//      stopping at the previous min_index. Metadata validation rejects a
//      sync section that crosses the previous anchor, so the phases meet.
// The last split has no entry: it starts fully live from the header's
// final states at the end of the bitstream.
//
// Grouping: with S splits on L lanes (a pool's workers plus the caller; 1
// without a pool) a decode runs T = max(min(S, L), ceil(S/4)) tasks, each
// holding S/T adjacent splits, rounded down or up (4 = kMaxRangeRuns). A
// task hands its runs to one RangeFn call, and the kernel picks how many
// advance in lockstep: the SIMD group kernel is latency-bound, and more
// independent streams fill the cycles one stream leaves idle
// (simd/kernel_iface.hpp).
//
// The run contract, shared by every decoder (Recoil splits here, the
// conventional baseline's partitions, chunked streams and range wires): a
// task builds up to kMaxRangeRuns RangeRuns and makes one call,
// range_fn(std::span<const RangeRun<Cfg, NLanes, TSym>> runs).
// The default RangeFn is the scalar per-symbol loop; simd::SimdRangeFn runs
// every phase of every run in one masked group kernel. Every run that
// reaches its stream's start (split 0, or any conventional partition) then
// ends in drain_start, which checks the end state a valid stream must
// reach: every unit consumed, every used lane back at L.

#include <algorithm>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "rans/interleaved.hpp"
#include "util/thread_pool.hpp"

namespace recoil {

/// Scalar range decoder: the default RangeFn and the per-symbol reference
/// every SIMD backend is tested against. It decodes its runs one after the
/// other; a run with an entry first walks its synchronization section one
/// position at a time.
template <typename Cfg, u32 NLanes, typename TSym>
struct ScalarRangeFn {
    void operator()(std::span<const RangeRun<Cfg, NLanes, TSym>> runs) const {
        for (const auto& r : runs) {
            u64 hi = r.hi;
            if (r.entry != nullptr) {
                const SplitPoint& sp = *r.entry;
                for (u64 pos = hi + 1; pos-- > sp.min_index;) {
                    const u32 lane = static_cast<u32>(pos % NLanes);
                    if (pos > sp.indices[lane]) continue;  // lane not yet recoverable
                    if (pos == sp.indices[lane])
                        r.cur->x[lane] = static_cast<typename Cfg::StateT>(sp.states[lane]);
                    decode_positions<Cfg, NLanes, TSym>(*r.cur, r.units, pos, pos, *r.t,
                                                        nullptr);
                }
                if (sp.min_index <= r.lo) continue;
                hi = sp.min_index - 1;
            }
            decode_positions<Cfg, NLanes>(*r.cur, r.units, hi, r.lo, *r.t, r.out);
        }
    }
};

/// Add split k's synchronization work to `stats`, from its metadata alone
/// (O(lanes)): of its sync section's positions, lane l decodes the ones at
/// or below its recorded index (sync_symbols) and skips the rest
/// (skipped_positions); the split's run re-decodes split k - 1's whole sync
/// section (cross_symbols).
template <u32 NLanes>
void add_sync_stats(const RecoilMetadata& meta, u32 k, RecoilDecodeStats& stats) {
    if (k > 0) stats.cross_symbols += meta.splits[k - 1].sync_symbols();
    if (k + 1 >= meta.num_splits()) return;  // the last split has no sync section
    const SplitPoint& sp = meta.splits[k];
    u64 live = 0;
    for (u32 l = 0; l < NLanes; ++l) live += (sp.indices[l] - sp.min_index) / NLanes + 1;
    stats.sync_symbols += live;
    stats.skipped_positions += sp.sync_symbols() - live;
}

/// Run body(first, count) over the decode tasks of `items` independent
/// items (splits, or partitions) on `pool`: T = max(min(items, L), ceil(items
/// / kMaxRangeRuns)) tasks for L lanes, task i holding the `count` adjacent
/// items from `first`, items / T of them or one more.
template <typename Body>
void for_each_split_task(ThreadPool* pool, u64 items, const Body& body) {
    const u64 lanes = pool == nullptr ? 1 : u64{pool->size()} + 1;
    const u64 tasks = std::max(std::min(items, lanes), ceil_div<u64>(items, kMaxRangeRuns));
    if (tasks == 0) return;
    const u64 each = items / tasks, longer = items % tasks;
    for_each_index(pool, tasks, [&](u64 i) {
        body(i * each + std::min(i, longer), static_cast<u32>(each + (i < longer)));
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
};

/// Decode up to kMaxRangeRuns splits, possibly of different streams: one run
/// per split (entered at its split point, or fully live for the last split),
/// all through one range_fn call, then the drain of each run that reaches
/// position 0.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void recoil_decode_splits(std::span<const SplitJob<Cfg, TSym>> jobs,
                          const RangeFn& range_fn = {}) {
    RECOIL_CHECK(jobs.size() <= kMaxRangeRuns,
                 "recoil_decode_splits: at most four splits per task");
    LaneCursor<Cfg, NLanes> cur[kMaxRangeRuns];
    RangeRun<Cfg, NLanes, TSym> run[kMaxRangeRuns] = {};
    u64 num_symbols[kMaxRangeRuns] = {};
    u32 n = 0;
    for (const auto& job : jobs) {
        const RecoilMetadata& meta = *job.meta;
        RECOIL_CHECK(meta.lanes == NLanes, "recoil_decode_splits: lane count mismatch");
        const u32 S = meta.num_splits();
        RECOIL_CHECK(job.k < S, "recoil_decode_splits: split index out of range");
        if (meta.num_symbols == 0) continue;  // an empty stream has nothing to decode
        RangeRun<Cfg, NLanes, TSym>& r = run[n];
        r = {&cur[n], job.units, 0, job.k > 0 ? meta.splits[job.k - 1].min_index : 0,
             job.t, job.out};
        if (job.k == S - 1) {
            for (u32 l = 0; l < NLanes; ++l)
                cur[n].x[l] = static_cast<typename Cfg::StateT>(meta.final_states[l]);
            cur[n].p = static_cast<i64>(meta.num_units) - 1;
            r.hi = meta.num_symbols - 1;
        } else {
            const SplitPoint& sp = meta.splits[job.k];
            cur[n].p = static_cast<i64>(sp.offset);
            r.hi = sp.anchor_index;
            r.entry = &sp;
        }
        num_symbols[n++] = meta.num_symbols;
    }
    range_fn(std::span<const RangeRun<Cfg, NLanes, TSym>>(run, n));
    for (u32 i = 0; i < n; ++i)
        if (run[i].lo == 0) drain_start<Cfg, NLanes>(cur[i], run[i].units, num_symbols[i]);
}

/// Decode a full Recoil stream into a caller-provided buffer of
/// meta.num_symbols elements (the benches use this to measure decode work
/// only, as the paper measures kernel execution). `pool == nullptr` decodes
/// splits serially on the calling thread (still exercising the 3-phase
/// logic); otherwise split tasks run across the pool. Either way splits group
/// into tasks as the header describes. Exceptions from workers are rethrown
/// to the caller.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void recoil_decode_into(std::span<const typename Cfg::UnitT> units,
                        const RecoilMetadata& meta, const DecodeTables& t,
                        std::span<TSym> out, ThreadPool* pool = nullptr,
                        RecoilDecodeStats* stats = nullptr,
                        const RangeFn& range_fn = {}) {
    RECOIL_CHECK(out.size() >= meta.num_symbols, "recoil_decode_into: buffer too small");
    const u32 S = meta.num_splits();
    for_each_split_task(pool, S, [&](u64 first, u32 count) {
        SplitJob<Cfg, TSym> jobs[kMaxRangeRuns] = {};
        for (u32 j = 0; j < count; ++j)
            jobs[j] = {units, &meta, &t, static_cast<u32>(first + j), out.data()};
        recoil_decode_splits<Cfg, NLanes, TSym>(
            std::span<const SplitJob<Cfg, TSym>>(jobs, count), range_fn);
    });
    if (stats && meta.num_symbols > 0)
        for (u32 k = 0; k < S; ++k) add_sync_stats<NLanes>(meta, k, *stats);
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
