#include "core/split_planner.hpp"

#include "util/error.hpp"

namespace recoil {

std::vector<SplitPoint> plan_splits(std::span<const RenormEvent> events,
                                    u64 num_symbols, u32 max_splits, u32 lanes) {
    if (max_splits <= 1 || num_symbols == 0 || events.empty()) return {};
    OnlinePlanner planner(num_symbols, max_splits, lanes);
    for (const RenormEvent& e : events) planner.push_back(e);
    return planner.finish();
}

RecoilMetadata combine_splits(const RecoilMetadata& meta, u32 target_splits) {
    RECOIL_CHECK(target_splits >= 1, "combine_splits: target must be >= 1");
    RecoilMetadata out;
    out.lanes = meta.lanes;
    out.state_store_bits = meta.state_store_bits;
    out.num_symbols = meta.num_symbols;
    out.num_units = meta.num_units;
    out.final_states = meta.final_states;
    if (target_splits >= meta.num_splits()) {
        out.splits = meta.splits;
        return out;
    }
    // Keep the interior anchors nearest to the ideal equal-symbol boundaries
    // i * N / target. Dropping entries never invalidates metadata: gaps only
    // grow, so min_index > previous-kept-anchor still holds.
    out.splits.reserve(target_splits - 1);
    std::size_t cursor = 0;
    for (u32 i = 1; i < target_splits; ++i) {
        const u64 ideal = meta.num_symbols / target_splits * i;
        // First split with anchor >= ideal (splits are ascending).
        while (cursor < meta.splits.size() &&
               meta.splits[cursor].anchor_index < ideal)
            ++cursor;
        std::size_t pick;
        if (cursor == 0) {
            pick = 0;
        } else if (cursor >= meta.splits.size()) {
            pick = meta.splits.size() - 1;
        } else {
            const u64 over = meta.splits[cursor].anchor_index - ideal;
            const u64 under = ideal - meta.splits[cursor - 1].anchor_index;
            pick = (under <= over) ? cursor - 1 : cursor;
        }
        if (!out.splits.empty() &&
            meta.splits[pick].anchor_index <= out.splits.back().anchor_index)
            continue;  // already used; a denser target than available entries
        out.splits.push_back(meta.splits[pick]);
    }
    return out;
}

}  // namespace recoil
