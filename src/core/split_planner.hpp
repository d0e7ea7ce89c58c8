#pragma once
// Split planning (§4.2): choose bitstream split points among the recorded
// renormalization events so that the per-thread workload is balanced and the
// synchronization sections stay small, by minimizing the paper's heuristic
//   H(t, ts) = |t - T| + |t - ts - T|,  T = ceil(N / M).

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "rans/renorm_event.hpp"
#include "util/ints.hpp"

namespace recoil {

/// Candidate window, as fractions of the per-split target T, searched around
/// each split's absolute ideal position k*N/M. Anchoring the window at the
/// absolute position (rather than previous anchor + T) keeps the schedule
/// from drifting: H's optimum lies near T + ts/2, so relative targeting
/// would overshoot by ts/2 per split.
inline constexpr double kWindowBelow = 0.50;
inline constexpr double kWindowAbove = 0.90;

namespace detail {

/// Rolling per-lane snapshot of the latest renormalization event, with an
/// amortized-O(1) running minimum: per-lane indices only grow, so the min
/// needs a rescan only when the min-holding lane itself advances.
struct LaneTracker {
    std::vector<u64> index;
    std::vector<u32> state;
    u32 seen = 0;  // number of lanes with at least one event
    u32 min_lane = 0;

    explicit LaneTracker(u32 lanes)
        : index(lanes, std::numeric_limits<u64>::max()), state(lanes, 0) {}

    void update(const RenormEvent& e) {
        if (index[e.lane] == std::numeric_limits<u64>::max()) ++seen;
        const bool was_min = e.lane == min_lane;
        index[e.lane] = e.sym_index;
        state[e.lane] = e.state;
        if (was_min) {
            u32 best = 0;
            for (u32 l = 1; l < index.size(); ++l)
                if (index[l] < index[best]) best = l;
            min_lane = best;
        } else if (index[e.lane] < index[min_lane]) {
            min_lane = e.lane;
        }
    }
    u64 min_index() const { return index[min_lane]; }
};

}  // namespace detail

/// Streaming split planner: consumes renormalization events *during*
/// encoding (as an interleaved_encode event sink), so no event list is ever
/// materialized. Chooses up to max_splits-1 interior split points by the
/// Definition 4.1 heuristic; a split point is valid only if every lane has
/// renormalized since the previous anchor (min_index > previous anchor),
/// which the 3-phase decoder requires.
class OnlinePlanner {
public:
    OnlinePlanner(u64 num_symbols, u32 max_splits, u32 lanes)
        : num_symbols_(num_symbols),
          max_splits_(std::max(max_splits, 1u)),
          lanes_(lanes),
          target_(static_cast<i64>(
              ceil_div<u64>(std::max<u64>(num_symbols, 1), max_splits_))),
          tracker_(lanes) {
        recompute_window();
    }

    /// Event-sink hook for interleaved_encode (events arrive in write order).
    void push_back(const RenormEvent& e) {
        if (done()) return;
        const i64 anchor = static_cast<i64>(e.sym_index);
        // Close windows the event has already passed (without consuming it).
        while (!done() && anchor > hi_ && have_best_) commit();
        if (done()) return;

        tracker_.update(e);
        if (anchor < lo_) return;
        if (tracker_.seen < lanes_) return;
        const i64 min_index = static_cast<i64>(tracker_.min_index());
        if (min_index > prev_anchor_) {  // sync section must not cross back
            const i64 t = anchor - prev_anchor_;
            const i64 ts = anchor - min_index + 1;
            const i64 h = habs(t - target_) + habs(t - ts - target_);  // Def. 4.1
            if (h < best_h_) {
                best_h_ = h;
                best_offset_ = e.offset;
                best_anchor_ = e.sym_index;
                best_min_ = static_cast<u64>(min_index);
                best_states_ = tracker_.state;
                best_indices_ = tracker_.index;
                have_best_ = true;
            }
        }
        if (anchor > hi_) {
            // Past the window with this event consumed: either the best so
            // far wins, or this slot is unplaceable at this granularity.
            if (have_best_) {
                commit();
            } else {
                ++k_;
                recompute_window();
            }
        }
    }

    /// Commit any pending candidate and return the split points (ascending).
    SplitTable finish() {
        if (!done() && have_best_) commit();
        return std::move(out_);
    }

private:
    static i64 habs(i64 v) { return v < 0 ? -v : v; }
    bool done() const { return k_ >= max_splits_; }

    void recompute_window() {
        if (done()) return;
        const i64 ideal = static_cast<i64>(u64{k_} * num_symbols_ / max_splits_);
        lo_ = std::max<i64>(prev_anchor_ + 1,
                            ideal - static_cast<i64>(target_ * kWindowBelow));
        hi_ = std::max<i64>(lo_ + 1,
                            ideal + static_cast<i64>(target_ * kWindowAbove));
    }

    void commit() {
        prev_anchor_ = static_cast<i64>(best_anchor_);
        out_.push_back({best_offset_, best_anchor_, best_min_, best_states_, best_indices_});
        have_best_ = false;
        best_h_ = std::numeric_limits<i64>::max();
        ++k_;
        if (static_cast<u64>(prev_anchor_) + 1 >= num_symbols_) k_ = max_splits_;
        recompute_window();
    }

    u64 num_symbols_;
    u32 max_splits_;
    u32 lanes_;
    i64 target_;
    detail::LaneTracker tracker_;

    u32 k_ = 1;  // split currently being placed (1 .. max_splits-1)
    i64 prev_anchor_ = -1;
    i64 lo_ = 0, hi_ = 0;
    bool have_best_ = false;
    i64 best_h_ = std::numeric_limits<i64>::max();
    u64 best_offset_ = 0, best_anchor_ = 0, best_min_ = 0;
    std::vector<u32> best_states_;
    std::vector<u64> best_indices_;
    SplitTable out_;
};

/// Plan from a materialized event list (wraps OnlinePlanner). Returns the
/// chosen split points in ascending anchor order; fewer than requested may
/// be returned if the stream is too short or too incompressible.
SplitTable plan_splits(std::span<const RenormEvent> events, u64 num_symbols,
                       u32 max_splits, u32 lanes);

/// Decoder-adaptive scaling (§3.3): reduce metadata to at most
/// `target_splits` splits by dropping interior entries, keeping the kept
/// anchors as close as possible to the ideal equal-symbol boundaries.
/// O(M) over metadata only, a gather of the kept rows into columns sized
/// once; the bitstream is untouched.
RecoilMetadata combine_splits(const RecoilMetadata& meta, u32 target_splits);

}  // namespace recoil
