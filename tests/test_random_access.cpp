// Tests for sub-range (random access) decoding via split metadata.

#include <gtest/gtest.h>

#include "core/random_access.hpp"
#include "core/recoil_encoder.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"

namespace recoil {
namespace {

struct Fixture {
    std::vector<u8> syms;
    StaticModel model;
    RecoilEncoded<Rans32, 32> enc;

    Fixture(std::size_t n, u32 splits, u64 seed)
        : syms(test::geometric_symbols<u8>(n, 0.6, 256, seed)),
          model(test::model_for<u8>(syms, 11, 256)),
          enc(recoil_encode<Rans32, 32>(std::span<const u8>(syms), model, splits)) {}
};

TEST(RandomAccess, PlanCoversRequestedRange) {
    Fixture f(300000, 64, 201);
    const auto& meta = f.enc.metadata;
    ASSERT_GE(meta.splits.size(), 10u);
    for (auto [lo, hi] : {std::pair<u64, u64>{0, 100},
                          {150000, 150001},
                          {299000, 300000},
                          {0, 300000}}) {
        auto plan = plan_range(meta, lo, hi);
        EXPECT_LE(plan.cover_lo, lo);
        EXPECT_GE(plan.cover_hi, hi);
        EXPECT_LE(plan.first_split, plan.last_split);
        EXPECT_LT(plan.last_split, meta.num_splits());
    }
}

TEST(RandomAccess, MatchesFullDecodeEverywhere) {
    Fixture f(200000, 48, 202);
    std::span<const u16> units(f.enc.bitstream.units);
    Xoshiro256 rng(203);
    for (int iter = 0; iter < 60; ++iter) {
        const u64 lo = rng.below(f.syms.size() - 1);
        const u64 hi = lo + 1 + rng.below(f.syms.size() - lo);
        auto part = recoil_decode_range<Rans32, 32, u8>(units, f.enc.metadata,
                                                        f.model.tables(), lo, hi);
        ASSERT_EQ(part.size(), hi - lo);
        for (u64 i = 0; i < part.size(); ++i) {
            ASSERT_EQ(part[i], f.syms[lo + i]) << "lo " << lo << " i " << i;
        }
    }
}

TEST(RandomAccess, SyncSectionBoundaries) {
    // Ranges exactly on sync-section and anchor boundaries — ownership edges.
    Fixture f(250000, 32, 204);
    std::span<const u16> units(f.enc.bitstream.units);
    const SplitTable& splits = f.enc.metadata.splits;
    for (std::size_t k = 0; k < splits.size(); ++k) {
        const u64 mn = splits.min_index[k], anchor = splits.anchor_index[k];
        for (u64 pos : {mn, anchor, mn - 1, anchor + 1}) {
            if (pos >= f.syms.size()) continue;
            auto part = recoil_decode_range<Rans32, 32, u8>(
                units, f.enc.metadata, f.model.tables(), pos, pos + 1);
            ASSERT_EQ(part[0], f.syms[pos]) << "pos " << pos;
        }
    }
}

TEST(RandomAccess, WorkIsProportionalToRange) {
    Fixture f(400000, 128, 205);
    // Decoding 1% of the stream must touch only a few of the 128 splits.
    auto plan = plan_range(f.enc.metadata, 200000, 204000);
    EXPECT_LE(plan.last_split - plan.first_split, 3u);
    EXPECT_LT(plan.cover_hi - plan.cover_lo, f.syms.size() / 16);
}

TEST(RandomAccess, SingleSplitStreamDegradesToFullPrefix) {
    Fixture f(50000, 1, 206);
    EXPECT_TRUE(f.enc.metadata.splits.empty());
    auto part = recoil_decode_range<Rans32, 32, u8>(
        std::span<const u16>(f.enc.bitstream.units), f.enc.metadata,
        f.model.tables(), 1000, 1100);
    for (u64 i = 0; i < 100; ++i) EXPECT_EQ(part[i], f.syms[1000 + i]);
}

TEST(RandomAccess, WithSimdAndPool) {
    Fixture f(300000, 96, 207);
    ThreadPool pool(4);
    simd::SimdRangeFn<u8> range;
    auto part = recoil_decode_range<Rans32, 32, u8>(
        std::span<const u16>(f.enc.bitstream.units), f.enc.metadata,
        f.model.tables(), 50000, 250000, &pool, range);
    ASSERT_EQ(part.size(), 200000u);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), f.syms.begin() + 50000));
}

TEST(RandomAccess, BadRangesThrow) {
    Fixture f(10000, 8, 208);
    std::span<const u16> units(f.enc.bitstream.units);
    EXPECT_THROW((recoil_decode_range<Rans32, 32, u8>(units, f.enc.metadata,
                                                      f.model.tables(), 5, 5)),
                 Error);
    EXPECT_THROW((recoil_decode_range<Rans32, 32, u8>(units, f.enc.metadata,
                                                      f.model.tables(), 0, 10001)),
                 Error);
}

}  // namespace
}  // namespace recoil
