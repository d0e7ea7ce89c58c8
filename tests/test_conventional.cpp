// Tests for baseline (B), the conventional partitioning-symbols codec.

#include <gtest/gtest.h>

#include "conventional/conventional.hpp"
#include "rans/indexed_model.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

/// Every backend this build and CPU can run.
std::vector<simd::Backend> backends() {
    std::vector<simd::Backend> v{simd::Backend::Scalar};
    for (const simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::clamp_backend(b) == b) v.push_back(b);
    return v;
}

TEST(Conventional, RoundTripAcrossPartitionCounts) {
    auto syms = test::geometric_symbols<u8>(200000, 0.6, 256, 31);
    auto m = test::model_for<u8>(syms, 11, 256);
    for (u32 parts : {1u, 2u, 16u, 100u, 2176u}) {
        auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, parts);
        auto dec = conventional_decode<Rans32, 32, u8>(enc, m.tables());
        ASSERT_EQ(dec.size(), syms.size()) << parts;
        EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin())) << parts;
    }
}

TEST(Conventional, ThreadPoolMatchesSerial) {
    auto syms = test::geometric_symbols<u8>(300000, 0.5, 256, 32);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 64);
    ThreadPool pool(8);
    auto a = conventional_decode<Rans32, 32, u8>(enc, m.tables());
    auto b = conventional_decode<Rans32, 32, u8>(enc, m.tables(), &pool);
    EXPECT_EQ(a, b);
}

TEST(Conventional, PartitionsAreLaneAligned) {
    auto syms = test::geometric_symbols<u8>(100001, 0.5, 256, 33);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 17);
    u64 expect_begin = 0;
    for (const auto& p : enc.partitions) {
        EXPECT_EQ(p.sym_begin % 32, 0u);
        EXPECT_EQ(p.sym_begin, expect_begin);
        expect_begin = p.sym_begin + p.sym_count;
    }
    EXPECT_EQ(expect_begin, syms.size());
}

TEST(Conventional, OverheadGrowsLinearlyWithPartitions) {
    auto syms = test::geometric_symbols<u8>(400000, 0.6, 256, 34);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto e1 = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 1);
    auto e16 = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 16);
    auto e256 = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 256);
    EXPECT_EQ(e1.overhead_bytes(), 0u);
    EXPECT_EQ(e16.overhead_bytes(), 15u * (8 + 32 * 4));
    EXPECT_EQ(e256.overhead_bytes(), 255u * (8 + 32 * 4));
    // Each partition keeps ~32*16 payload bits in its (table-stored) final
    // states instead of the bitstream, so the *total* is what grows.
    const u64 t1 = e1.payload_bytes() + e1.overhead_bytes();
    const u64 t16 = e16.payload_bytes() + e16.overhead_bytes();
    const u64 t256 = e256.payload_bytes() + e256.overhead_bytes();
    EXPECT_LT(t1, t16);
    EXPECT_LT(t16, t256);
    // And the growth is dominated by the linear per-partition overhead.
    EXPECT_GT(t256 - t1, 240u * 64);
}

TEST(Conventional, MorePartitionsThanGroupsDegrades) {
    auto syms = test::geometric_symbols<u8>(320, 0.5, 256, 35);  // 10 groups
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 100);
    EXPECT_LE(enc.partitions.size(), 10u);
    auto dec = conventional_decode<Rans32, 32, u8>(enc, m.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Conventional, AdaptiveModelSeesGlobalIndices) {
    const std::size_t n = 64000;
    Xoshiro256 rng(36);
    std::vector<u8> syms(n), ids(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 1000) % 3);
        syms[i] = static_cast<u8>(rng.below(ids[i] == 2 ? 4 : 64));
    }
    std::vector<std::vector<u64>> counts(3, std::vector<u64>(256, 1));
    for (std::size_t i = 0; i < n; ++i) ++counts[ids[i]][syms[i]];
    std::vector<StaticModel> models;
    for (auto& c : counts) models.emplace_back(c, 12);
    IndexedModelSet set(std::move(models), ids);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), set, 16);
    auto dec = conventional_decode<Rans32, 32, u8>(enc, set.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Conventional, EmptyInput) {
    std::vector<u64> counts(4, 1);
    StaticModel m(counts, 8);
    std::vector<u8> syms;
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 8);
    auto dec = conventional_decode<Rans32, 32, u8>(enc, m.tables());
    EXPECT_TRUE(dec.empty());
}

TEST(Conventional, SixteenBitSymbols) {
    auto syms = test::geometric_symbols<u16>(90000, 0.97, 4096, 37);
    std::vector<u64> counts(4096, 0);
    for (u16 s : syms) ++counts[s];
    StaticModel m(counts, 16);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u16>(syms), m, 32);
    auto dec = conventional_decode<Rans32, 32, u16>(enc, m.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Conventional, StreamWithoutUnitsDecodesOnEveryBackend) {
    // 40 copies of a frequent symbol in 2 partitions: no lane renormalizes,
    // so the stream has no units at all, and still decodes.
    const std::vector<u8> syms(40, 'a');
    std::vector<u64> counts(256, 1);
    counts['a'] = 1000;
    const StaticModel m(counts, 11);
    const auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 2);
    ASSERT_EQ(enc.partitions.size(), 2u);
    ASSERT_TRUE(enc.units.empty());
    for (const simd::Backend b : backends()) {
        EXPECT_EQ((conventional_decode<Rans32, 32, u8>(enc, m.tables(), nullptr,
                                                       simd::SimdRangeFn<u8>{b})),
                  syms)
            << simd::backend_name(b);
    }
}

TEST(Conventional, FlippedUnitsInAnyPartitionAreTypedDecodeErrors) {
    // The conventional twin of the container suite's split-0 flips: a
    // single-bit flip in any partition's units must fail that partition's
    // end-state check (every unit consumed, every used lane back at L) on
    // every backend, instead of returning wrong bytes.
    const auto text = workload::gen_text(64 * 1024, 5);
    const auto m = test::model_for<u8>(text, 11, 256);
    const auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(text), m, 16);
    ASSERT_EQ(enc.partitions.size(), 16u);
    const u64 n = enc.units.size();
    for (u64 i = 0; i < 200; ++i) {
        auto bad = enc;
        const u64 pos = (i * n) / 200;
        bad.units[pos] ^= static_cast<u16>(1u << (i % 16));
        for (const simd::Backend b : backends()) {
            const auto decode = [&] {
                return conventional_decode<Rans32, 32, u8>(bad, m.tables(), nullptr,
                                                           simd::SimdRangeFn<u8>{b});
            };
            EXPECT_THROW(decode(), Error) << "unit " << pos << " on " << simd::backend_name(b);
        }
    }
}

}  // namespace
}  // namespace recoil
