#pragma once
// Baseline (B): the conventional "partitioning symbols" approach (§2.3),
// as in DietGPU. The input symbol sequence is cut into P contiguous
// sub-sequences, each encoded by a completely independent group of NLanes
// interleaved rANS coders. The resulting sub-bitstreams are concatenated,
// with an offset table to locate them. The partition count is fixed at
// encode time — the flexibility Recoil exists to provide is exactly what
// this baseline lacks.
//
// Partitions are aligned to NLanes symbols so that the global position
// (pos % NLanes) lane mapping holds inside every partition; this also means
// per-index adaptive models work unchanged.

#include <span>
#include <vector>

#include "core/recoil_decoder.hpp"  // the shared RangeFn contract and task grouping
#include "rans/interleaved.hpp"
#include "util/thread_pool.hpp"

namespace recoil {

template <typename Cfg = Rans32, u32 NLanes = kLanes>
struct ConventionalEncoded {
    struct Partition {
        u64 sym_begin = 0;
        u64 sym_count = 0;
        u64 unit_begin = 0;
        u64 unit_count = 0;
        std::array<typename Cfg::StateT, NLanes> final_states{};
    };

    std::vector<typename Cfg::UnitT> units;  ///< concatenated sub-bitstreams
    std::vector<Partition> partitions;
    u64 num_symbols = 0;

    /// Transmission overhead versus a single-partition stream: per extra
    /// partition, the offset-table entry (unit offset u32 + symbol count u32)
    /// plus NLanes final states. The single mandatory set of final states and
    /// one table entry are part of the baseline too, so they are not counted.
    u64 overhead_bytes() const noexcept {
        if (partitions.size() <= 1) return 0;
        return (partitions.size() - 1) * (8 + NLanes * sizeof(typename Cfg::StateT));
    }

    u64 payload_bytes() const noexcept {
        return units.size() * sizeof(typename Cfg::UnitT);
    }
};

/// Encode `syms` into `num_partitions` independent sub-bitstreams. Because
/// the partitions are fully independent, encoding parallelizes across the
/// pool when one is supplied — the one advantage the conventional approach
/// holds over Recoil, whose single coder group must encode serially (§6).
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym, typename Model>
ConventionalEncoded<Cfg, NLanes> conventional_encode(std::span<const TSym> syms,
                                                     const Model& model,
                                                     u32 num_partitions,
                                                     ThreadPool* pool = nullptr) {
    RECOIL_CHECK(num_partitions >= 1, "conventional_encode: need >= 1 partition");
    ConventionalEncoded<Cfg, NLanes> out;
    out.num_symbols = syms.size();

    // Each partition runs its own coder group; adaptive models still see
    // global symbol indices via the offset shim below.
    struct OffsetModel {
        const Model* m;
        u64 base;
        u32 prob_bits() const noexcept { return m->prob_bits(); }
        const EncSymbolFast& enc_fast(u64 i, u32 s) const noexcept {
            return m->enc_fast(base + i, s);
        }
    };

    // Equal-symbol partitioning rounded to whole interleave groups.
    const u64 groups = ceil_div<u64>(syms.size(), NLanes);
    const u64 parts = std::min<u64>(num_partitions, groups == 0 ? 1 : groups);
    struct Bounds {
        u64 sym_begin, sym_end;
    };
    std::vector<Bounds> bounds;
    u64 begin_group = 0;
    for (u64 pi = 0; pi < parts; ++pi) {
        const u64 end_group = groups * (pi + 1) / parts;
        const u64 sym_begin = begin_group * NLanes;
        const u64 sym_end = std::min<u64>(end_group * NLanes, syms.size());
        begin_group = end_group;
        if (sym_end <= sym_begin && !(pi == 0 && syms.empty())) continue;
        bounds.push_back({sym_begin, sym_end});
    }

    std::vector<InterleavedBitstream<Cfg, NLanes>> encoded(bounds.size());
    for_each_index(pool, bounds.size(), [&](u64 pi) {
        OffsetModel shim{&model, bounds[pi].sym_begin};
        encoded[pi] = interleaved_encode<Cfg, NLanes>(
            syms.subspan(bounds[pi].sym_begin,
                         bounds[pi].sym_end - bounds[pi].sym_begin),
            shim);
    });

    for (u64 pi = 0; pi < bounds.size(); ++pi) {
        typename ConventionalEncoded<Cfg, NLanes>::Partition p;
        p.sym_begin = bounds[pi].sym_begin;
        p.sym_count = bounds[pi].sym_end - bounds[pi].sym_begin;
        p.unit_begin = out.units.size();
        p.unit_count = encoded[pi].units.size();
        p.final_states = encoded[pi].final_states;
        out.units.insert(out.units.end(), encoded[pi].units.begin(),
                         encoded[pi].units.end());
        out.partitions.push_back(p);
    }
    if (out.partitions.empty()) out.partitions.emplace_back();
    return out;
}

/// Decode partitions [first, first + count) into `out` (full-size buffer,
/// global indices) as Recoil decodes splits: each partition is one run over
/// its own units, starting from its final states, and up to kMaxRangeRuns
/// partitions go through one range_fn call. Each ends in drain_start, the
/// end-state check of a stream that reaches its start.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void conventional_decode_partitions(const ConventionalEncoded<Cfg, NLanes>& enc,
                                    const DecodeTables& t, u64 first, u32 count,
                                    TSym* out, const RangeFn& range_fn = {}) {
    RECOIL_CHECK(count <= kMaxRangeRuns, "conventional: at most four partitions per task");
    LaneCursor<Cfg, NLanes> cur[kMaxRangeRuns];
    RangeRun<Cfg, NLanes, TSym> run[kMaxRangeRuns] = {};
    u64 num_symbols[kMaxRangeRuns] = {};
    u32 n = 0;
    for (u64 pi = first; pi < first + count; ++pi) {
        const auto& p = enc.partitions[pi];
        const auto units = std::span(enc.units).subspan(p.unit_begin, p.unit_count);
        cur[n].x = p.final_states;
        cur[n].p = static_cast<i64>(p.unit_count) - 1;
        if (p.sym_count == 0) {  // nothing to decode, and no unit may be left
            drain_start<Cfg, NLanes>(cur[n], units, 0);
            continue;
        }
        run[n] = {&cur[n], units, p.sym_begin + p.sym_count - 1, p.sym_begin, &t, out};
        num_symbols[n++] = p.sym_count;
    }
    range_fn(std::span<const RangeRun<Cfg, NLanes, TSym>>(run, n));
    for (u32 i = 0; i < n; ++i) drain_start<Cfg, NLanes>(cur[i], run[i].units, num_symbols[i]);
}

/// Decode all partitions (independently parallel across the pool, grouped
/// into tasks as Recoil splits are; see core/recoil_decoder.hpp) into a
/// caller-provided buffer of enc.num_symbols elements.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
void conventional_decode_into(const ConventionalEncoded<Cfg, NLanes>& enc,
                              const DecodeTables& t, std::span<TSym> out,
                              ThreadPool* pool = nullptr,
                              const RangeFn& range_fn = {}) {
    RECOIL_CHECK(out.size() >= enc.num_symbols, "conventional_decode_into: buffer too small");
    for_each_split_task(pool, enc.partitions.size(), [&](u64 first, u32 count) {
        conventional_decode_partitions<Cfg, NLanes, TSym>(enc, t, first, count, out.data(),
                                                          range_fn);
    });
}

/// Allocating convenience wrapper around conventional_decode_into.
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym,
          typename RangeFn = ScalarRangeFn<Cfg, NLanes, TSym>>
std::vector<TSym> conventional_decode(const ConventionalEncoded<Cfg, NLanes>& enc,
                                      const DecodeTables& t,
                                      ThreadPool* pool = nullptr,
                                      const RangeFn& range_fn = {}) {
    std::vector<TSym> out(enc.num_symbols);
    conventional_decode_into<Cfg, NLanes, TSym>(enc, t, std::span<TSym>(out), pool,
                                                range_fn);
    return out;
}

}  // namespace recoil
