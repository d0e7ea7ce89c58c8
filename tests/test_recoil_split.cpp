// Tests for the split planner: validity invariants of Definition 4.1's
// heuristic, workload balance, and combining behaviour.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/split_planner.hpp"
#include "rans/interleaved.hpp"
#include "test_util.hpp"

namespace recoil {
namespace {

/// A planned stream: its bitstream and its metadata, whose split table
/// plan_splits filled.
struct Planned {
    InterleavedBitstream<Rans32, 32> bs;
    RecoilMetadata meta;
    u64 n;
};

Planned plan(std::size_t n, double q, u32 max_splits, u32 prob_bits = 11) {
    auto syms = test::geometric_symbols<u8>(n, q, 256, n + max_splits);
    auto m = test::model_for<u8>(syms, prob_bits, 256);
    RenormEventList events;
    Planned p;
    p.bs = interleaved_encode<Rans32, 32>(std::span<const u8>(syms), m, &events);
    p.meta.lanes = 32;
    p.meta.state_store_bits = 16;
    p.meta.num_symbols = n;
    p.meta.num_units = p.bs.units.size();
    p.meta.final_states.assign(p.bs.final_states.begin(), p.bs.final_states.end());
    p.meta.splits = plan_splits(events, n, max_splits, 32);
    p.n = n;
    return p;
}

void check_validity(const RecoilMetadata& meta, u64 n) {
    const SplitTable& t = meta.splits;
    ASSERT_EQ(t.anchor_index.size(), t.size());
    ASSERT_EQ(t.min_index.size(), t.size());
    ASSERT_EQ(t.states.size(), 32 * t.size());
    ASSERT_EQ(t.indices.size(), 32 * t.size());
    i64 prev_anchor = -1;
    u64 prev_offset = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const SplitRow sp = meta.split(i);
        EXPECT_LT(sp.anchor_index, n);
        EXPECT_GT(static_cast<i64>(sp.min_index), prev_anchor)
            << "sync section crosses previous anchor at split " << i;
        EXPECT_LE(sp.min_index, sp.anchor_index);
        if (i > 0) {
            EXPECT_GT(sp.offset, prev_offset);
        }
        u64 mn = ~u64{0}, mx = 0;
        for (u32 l = 0; l < 32; ++l) {
            EXPECT_LT(sp.states[l], Rans32::lower_bound);
            EXPECT_EQ(sp.indices[l] % 32, l);
            mn = std::min(mn, sp.indices[l]);
            mx = std::max(mx, sp.indices[l]);
        }
        EXPECT_EQ(mn, sp.min_index);
        EXPECT_EQ(mx, sp.anchor_index);
        prev_anchor = static_cast<i64>(sp.anchor_index);
        prev_offset = sp.offset;
    }
}

TEST(SplitPlanner, ProducesRequestedSplits) {
    auto p = plan(200000, 0.6, 16);
    EXPECT_EQ(p.meta.splits.size(), 15u);
    check_validity(p.meta, p.n);
}

TEST(SplitPlanner, ManySplits) {
    auto p = plan(500000, 0.6, 256);
    EXPECT_GE(p.meta.splits.size(), 250u);
    check_validity(p.meta, p.n);
}

TEST(SplitPlanner, WorkloadBalanced) {
    auto p = plan(400000, 0.5, 32);
    ASSERT_EQ(p.meta.splits.size(), 31u);
    const i64 target = 400000 / 32;
    i64 prev = -1;
    for (const u64 anchor : p.meta.splits.anchor_index) {
        const i64 t = static_cast<i64>(anchor) - prev;
        EXPECT_GT(t, target / 2);
        EXPECT_LT(t, target * 2);
        prev = static_cast<i64>(anchor);
    }
    // Last implicit split gets the balance too.
    EXPECT_GT(static_cast<i64>(p.n) - 1 - prev, target / 4);
}

TEST(SplitPlanner, SyncSectionsSmall) {
    auto p = plan(400000, 0.5, 32);
    // With q=0.5 byte data each lane renormalizes every couple of its own
    // symbols, so sync sections should be a tiny fraction of the split size.
    for (std::size_t k = 0; k < p.meta.splits.size(); ++k) {
        EXPECT_LT(p.meta.split(k).sync_symbols(), 2000u);
    }
}

TEST(SplitPlanner, HighlyCompressibleDataStillValid) {
    // q=0.02: ~all symbols are 0, renormalizations are rare and sync
    // sections large relative to splits; validity must still hold.
    auto p = plan(300000, 0.02, 16);
    check_validity(p.meta, p.n);
    EXPECT_GE(p.meta.splits.size(), 4u);
}

TEST(SplitPlanner, MaxSplitsOneMeansNoMetadata) {
    auto p = plan(10000, 0.5, 1);
    EXPECT_TRUE(p.meta.splits.empty());
}

TEST(SplitPlanner, ShortStreamDegradesGracefully) {
    auto p = plan(100, 0.5, 64);
    check_validity(p.meta, p.n);  // may be few or none, but must be valid
}

TEST(SplitPlanner, MoreSplitsThanRenormPointsDegrades) {
    auto p = plan(2000, 0.02, 512);
    check_validity(p.meta, p.n);
    EXPECT_LT(p.meta.splits.size(), 511u);
}

TEST(CombineSplits, KeepsBalanceAndValidity) {
    auto p = plan(500000, 0.6, 256);
    const RecoilMetadata& meta = p.meta;

    for (u32 target : {128u, 16u, 4u, 2u, 1u}) {
        auto combined = combine_splits(meta, target);
        EXPECT_LE(combined.num_splits(), target);
        check_validity(combined, p.n);
        // Balance: anchors near ideal boundaries.
        for (std::size_t i = 0; i < combined.splits.size(); ++i) {
            const double ideal = static_cast<double>(p.n) / target * (i + 1);
            EXPECT_NEAR(static_cast<double>(combined.splits.anchor_index[i]), ideal,
                        static_cast<double>(p.n) / target * 0.6);
        }
    }
}

TEST(CombineSplits, TargetLargerThanAvailableIsIdentity) {
    auto p = plan(100000, 0.6, 8);
    const RecoilMetadata& meta = p.meta;
    auto combined = combine_splits(meta, 9999);
    EXPECT_EQ(combined.splits.size(), meta.splits.size());
}

TEST(CombineSplits, KeptEntriesAreSubsetOfOriginal) {
    auto p = plan(300000, 0.5, 64);
    const RecoilMetadata& meta = p.meta;
    auto combined = combine_splits(meta, 8);
    for (std::size_t i = 0; i < combined.splits.size(); ++i) {
        const SplitRow sp = combined.split(i);
        bool found = false;
        for (std::size_t k = 0; k < meta.splits.size(); ++k) {
            const SplitRow orig = meta.split(k);
            if (orig.anchor_index == sp.anchor_index && orig.offset == sp.offset &&
                std::ranges::equal(orig.states, sp.states) &&
                std::ranges::equal(orig.indices, sp.indices))
                found = true;
        }
        EXPECT_TRUE(found) << "combining must only drop entries, never synthesize";
    }
}

}  // namespace
}  // namespace recoil
