// Ablation: the Definition 4.1 split heuristic H(t, ts) versus a naive
// planner that just takes the first valid renormalization point past each
// equal-offset boundary. Reports workload balance (max/mean symbols per
// split), total synchronization overhead, and decode throughput.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "simd/dispatch.hpp"

using namespace recoil;

namespace {

/// Naive planner: first valid candidate at/after each ideal boundary.
std::vector<SplitPoint> naive_plan(std::span<const RenormEvent> events,
                                   u64 num_symbols, u32 max_splits, u32 lanes) {
    std::vector<SplitPoint> out;
    std::vector<u64> lane_idx(lanes, ~u64{0});
    std::vector<u32> lane_state(lanes, 0);
    std::vector<u64> lane_off(lanes, 0);
    u32 seen = 0;
    std::size_t ei = 0;
    i64 prev_anchor = -1;
    for (u32 k = 1; k < max_splits; ++k) {
        const u64 ideal = num_symbols / max_splits * k;
        bool placed = false;
        while (ei < events.size() && !placed) {
            const auto& e = events[ei++];
            if (lane_idx[e.lane] == ~u64{0}) ++seen;
            lane_idx[e.lane] = e.sym_index;
            lane_state[e.lane] = e.state;
            lane_off[e.lane] = e.offset;
            if (e.sym_index < ideal || seen < lanes) continue;
            const u64 mn = *std::min_element(lane_idx.begin(), lane_idx.end());
            if (static_cast<i64>(mn) <= prev_anchor) continue;
            SplitPoint sp;
            sp.offset = e.offset;
            sp.anchor_index = e.sym_index;
            sp.min_index = mn;
            sp.states.assign(lane_state.begin(), lane_state.end());
            sp.indices.assign(lane_idx.begin(), lane_idx.end());
            out.push_back(std::move(sp));
            prev_anchor = static_cast<i64>(e.sym_index);
            placed = true;
        }
        if (!placed) break;
    }
    return out;
}

void report(const char* name, const RecoilMetadata& meta,
            std::span<const u16> units, const DecodeTables& t, u64 raw_bytes,
            ThreadPool& pool) {
    u64 sync_total = 0, max_t = 0;
    i64 prev = -1;
    for (const auto& sp : meta.splits) {
        sync_total += sp.sync_symbols();
        max_t = std::max(max_t, sp.anchor_index - prev);
        prev = static_cast<i64>(sp.anchor_index);
    }
    max_t = std::max(max_t, meta.num_symbols - 1 - prev);
    const double mean_t =
        static_cast<double>(meta.num_symbols) / meta.num_splits();
    simd::SimdRangeFn<u8> range;
    std::vector<u8> buf(meta.num_symbols);
    const double gbps = bench::measure_gbps(raw_bytes, bench::runs(), [&] {
        recoil_decode_into<Rans32, 32, u8>(units, meta, t, std::span<u8>(buf), &pool,
                                           nullptr, range);
    });
    std::printf("%-18s %8u %12.0f %10lu %12.3f %10lu %10.2f\n", name,
                meta.num_splits(), mean_t, static_cast<unsigned long>(max_t),
                static_cast<double>(max_t) / mean_t,
                static_cast<unsigned long>(sync_total), gbps);
}

}  // namespace

int main() {
    const double scale = workload::bench_scale();
    const u64 size = std::max<u64>(2'000'000, static_cast<u64>(10e6 * scale));
    std::printf("== Ablation: split planner heuristic vs naive placement ==\n");
    std::printf("dataset: %.1f MB text, n=11, 256 splits\n\n", size / 1e6);
    auto data = workload::gen_text(size, 5);
    auto model = bench::model_for_bytes(data, 11);

    RenormEventList events;
    auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(data), model, &events);

    RecoilMetadata base;
    base.lanes = 32;
    base.state_store_bits = 16;
    base.num_symbols = bs.num_symbols;
    base.num_units = bs.units.size();
    base.final_states.assign(bs.final_states.begin(), bs.final_states.end());

    std::printf("%-18s %8s %12s %10s %12s %10s %10s\n", "planner", "splits",
                "mean t", "max t", "imbalance", "sync syms", "GB/s");
    ThreadPool pool(16);

    auto h = base;
    h.splits = plan_splits(events, bs.num_symbols, 256, 32);
    report("H(t,ts) heuristic", h, std::span<const u16>(bs.units), model.tables(),
           data.size(), pool);

    auto nv = base;
    nv.splits = naive_plan(events, bs.num_symbols, 256, 32);
    report("naive first-valid", nv, std::span<const u16>(bs.units), model.tables(),
           data.size(), pool);
    return 0;
}
