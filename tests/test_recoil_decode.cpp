// End-to-end correctness of the Recoil 3-phase decoder: split decode must be
// bit-identical to serial decode across data skews, split counts, symbol
// widths, adaptive models, and after split combining; serial and thread-pool
// execution must agree.

#include <gtest/gtest.h>

#include <optional>

#include "conventional/conventional.hpp"
#include "core/random_access.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "rans/indexed_model.hpp"
#include "simd/dispatch.hpp"
#include "stream/chunked.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace recoil {
namespace {

template <typename TSym>
void expect_decode_matches(const RecoilEncoded<Rans32, 32>& enc,
                           const DecodeTables& t, std::span<const TSym> syms,
                           ThreadPool* pool) {
    RecoilDecodeStats stats;
    auto dec = recoil_decode<Rans32, 32, TSym>(
        std::span<const u16>(enc.bitstream.units), enc.metadata, t, pool, &stats);
    ASSERT_EQ(dec.size(), syms.size());
    for (std::size_t i = 0; i < syms.size(); ++i)
        ASSERT_EQ(dec[i], syms[i]) << "mismatch at " << i;
    if (enc.metadata.num_splits() > 1) {
        EXPECT_GT(stats.sync_symbols, 0u);
        // Every sync-section position is either decoded (discarded) or
        // skipped in phase 1, and every sync section is re-decoded exactly
        // once by the next thread's cross-boundary phase.
        EXPECT_EQ(stats.sync_symbols + stats.skipped_positions, stats.cross_symbols);
    }
}

TEST(RecoilDecode, MatchesSerialAcrossSplitCounts) {
    auto syms = test::geometric_symbols<u8>(300000, 0.6, 256, 77);
    auto m = test::model_for<u8>(syms, 11, 256);
    for (u32 splits : {1u, 2u, 3u, 16u, 64u, 256u}) {
        auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, splits);
        expect_decode_matches<u8>(enc, m.tables(), syms, nullptr);
    }
}

TEST(RecoilDecode, ThreadPoolMatches) {
    auto syms = test::geometric_symbols<u8>(500000, 0.55, 256, 78);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 128);
    ThreadPool pool(8);
    expect_decode_matches<u8>(enc, m.tables(), syms, &pool);
}

TEST(RecoilDecode, HighlySkewedData) {
    auto syms = test::geometric_symbols<u8>(200000, 0.03, 256, 79);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 32);
    expect_decode_matches<u8>(enc, m.tables(), syms, nullptr);
}

TEST(RecoilDecode, NearlyIncompressibleData) {
    auto syms = test::geometric_symbols<u8>(200000, 0.995, 256, 80);
    auto m = test::model_for<u8>(syms, 16, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 64);
    expect_decode_matches<u8>(enc, m.tables(), syms, nullptr);
}

TEST(RecoilDecode, SixteenBitSymbolsProbBits16) {
    auto syms = test::geometric_symbols<u16>(150000, 0.97, 4096, 81);
    std::vector<u64> counts(4096, 0);
    for (u16 s : syms) ++counts[s];
    StaticModel m(counts, 16);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(syms), m, 48);
    expect_decode_matches<u16>(enc, m.tables(), syms, nullptr);
}

TEST(RecoilDecode, AdaptiveIndexedModel) {
    // Two alternating contexts with very different distributions — exercises
    // the per-symbol-index model dispatch across split boundaries.
    const std::size_t n = 120000;
    Xoshiro256 rng(82);
    std::vector<u8> syms(n);
    std::vector<u8> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 7) % 2);
        const double q = ids[i] == 0 ? 0.2 : 0.9;
        u32 v = 0;
        while (v < 255 && rng.uniform() < q) ++v;
        syms[i] = static_cast<u8>(v);
    }
    std::vector<u64> c0(256, 0), c1(256, 0);
    for (std::size_t i = 0; i < n; ++i) (ids[i] == 0 ? c0 : c1)[syms[i]]++;
    for (u32 s = 0; s < 256; ++s) {  // smooth so every symbol is encodable
        ++c0[s];
        ++c1[s];
    }
    std::vector<StaticModel> models{StaticModel(c0, 12), StaticModel(c1, 12)};
    IndexedModelSet set(std::move(models), ids);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), set, 32);
    expect_decode_matches<u8>(enc, set.tables(), syms, nullptr);
}

TEST(RecoilDecode, CombinedSplitsDecodeIdentically) {
    auto syms = test::geometric_symbols<u8>(400000, 0.6, 256, 83);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 256);
    ThreadPool pool(8);
    for (u32 target : {64u, 16u, 5u, 2u, 1u}) {
        auto meta = combine_splits(enc.metadata, target);
        auto dec = recoil_decode<Rans32, 32, u8>(
            std::span<const u16>(enc.bitstream.units), meta, m.tables(), &pool);
        ASSERT_EQ(dec.size(), syms.size());
        EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()))
            << "combined to " << target;
    }
}

TEST(RecoilDecode, EachSplitDecodesItsOwnRange) {
    // Decode splits one at a time into separate buffers; the union must cover
    // every position exactly once (phases 2+3 partition the stream).
    auto syms = test::geometric_symbols<u8>(100000, 0.5, 256, 84);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 8);
    const u32 S = enc.metadata.num_splits();
    ASSERT_GT(S, 1u);
    std::vector<int> covered(syms.size(), 0);
    const DecodeTables t = m.tables();
    for (u32 k = 0; k < S; ++k) {
        std::vector<u8> buf(syms.size(), 0xEE);
        const SplitJob<Rans32, u8> job{enc.bitstream.units, &enc.metadata, &t, k, buf.data()};
        recoil_decode_splits<Rans32, 32, u8>({&job, 1});
        for (std::size_t i = 0; i < syms.size(); ++i) {
            if (buf[i] != 0xEE || syms[i] == 0xEE) {
                // Position written (or coincidentally matching the sentinel —
                // resolve by checking correctness below).
                if (buf[i] == syms[i] && buf[i] != 0xEE) ++covered[i];
            }
        }
    }
    // Sentinel collisions make exact counting fuzzy for 0xEE symbols; check
    // a sample of non-sentinel positions instead.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (syms[i] == 0xEE) continue;
        EXPECT_EQ(covered[i], 1) << "position " << i << " covered " << covered[i];
        ++checked;
    }
    EXPECT_GT(checked, syms.size() / 2);
}

TEST(RecoilDecode, LaneCountMismatchThrows) {
    auto syms = test::geometric_symbols<u8>(10000, 0.5, 256, 85);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 4);
    auto meta = enc.metadata;
    meta.lanes = 16;
    EXPECT_THROW((recoil_decode<Rans32, 32, u8>(
                     std::span<const u16>(enc.bitstream.units), meta, m.tables())),
                 Error);
}

TEST(RecoilDecode, ByteUnitConfig) {
    auto syms = test::geometric_symbols<u8>(150000, 0.6, 256, 86);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32x8, 32>(std::span<const u8>(syms), m, 16);
    EXPECT_EQ(enc.metadata.state_store_bits, 23u);
    auto dec = recoil_decode<Rans32x8, 32, u8>(std::span<const u8>(enc.bitstream.units),
                                               enc.metadata, m.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(RecoilDecode, TinyStreams) {
    std::vector<u64> counts(256, 1);
    StaticModel m(counts, 8);
    for (std::size_t n : {0u, 1u, 31u, 32u, 100u}) {
        auto syms = test::geometric_symbols<u8>(n, 0.5, 256, 90 + n);
        auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 16);
        auto dec = recoil_decode<Rans32, 32, u8>(
            std::span<const u16>(enc.bitstream.units), enc.metadata, m.tables());
        ASSERT_EQ(dec.size(), n);
        EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
    }
}

std::vector<simd::Backend> available_backends() {
    std::vector<simd::Backend> v{simd::Backend::Scalar};
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::clamp_backend(b) == b) v.push_back(b);
    return v;
}

/// Exactly S splits: S - 1 of `meta`'s split points, evenly spread by index.
RecoilMetadata with_splits(const RecoilMetadata& meta, u32 S) {
    RecoilMetadata out = meta;
    out.splits.clear();
    for (u64 i = 1; i < S; ++i) out.splits.push_back(meta.splits[i * meta.splits.size() / S]);
    return out;
}

/// Decode `meta` on every pool size and backend; each must equal `ref`.
template <typename TSym>
void expect_every_lane_count_matches(std::span<const u16> units, const RecoilMetadata& meta,
                                     const DecodeTables& t, const std::vector<TSym>& ref,
                                     const char* what) {
    for (unsigned workers : {0u, 1u, 3u}) {
        std::optional<ThreadPool> pool;
        if (workers > 0) pool.emplace(workers);
        for (simd::Backend b : available_backends()) {
            RecoilDecodeStats stats;
            auto dec = recoil_decode<Rans32, 32, TSym>(units, meta, t,
                                                       pool ? &*pool : nullptr, &stats,
                                                       simd::SimdRangeFn<TSym>{b});
            ASSERT_TRUE(dec == ref) << what << ": S " << meta.num_splits() << ", "
                                    << workers << " workers, "
                                    << simd::backend_name(b);
            EXPECT_EQ(stats.sync_symbols + stats.skipped_positions, stats.cross_symbols);
        }
    }
}

TEST(RecoilDecode, SyncStatsMatchTheirDefinition) {
    // Brute force over every synchronization-section position: a position
    // whose lane has joined (it lies at or below the lane's recorded index)
    // is decoded and discarded (sync_symbols), any other is skipped
    // (skipped_positions), and each split after the first re-decodes its
    // predecessor's whole section (cross_symbols). Every backend and pool
    // size must report exactly that.
    const auto syms = test::geometric_symbols<u8>(800000, 0.6, 256, 311);
    const auto m = test::model_for<u8>(syms, 11, 256);
    const auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 2400);
    ASSERT_GE(enc.metadata.num_splits(), 2176u);
    const std::span<const u16> units(enc.bitstream.units);
    for (u32 S : {16u, 2176u}) {
        const RecoilMetadata meta = with_splits(enc.metadata, S);
        RecoilDecodeStats want;
        for (u32 k = 0; k + 1 < S; ++k) {
            const SplitPoint& sp = meta.splits[k];
            for (u64 pos = sp.min_index; pos <= sp.anchor_index; ++pos)
                ++(pos <= sp.indices[pos % 32] ? want.sync_symbols : want.skipped_positions);
            want.cross_symbols += sp.anchor_index - sp.min_index + 1;
        }
        ASSERT_GT(want.skipped_positions, 0u);
        auto expect_stats = [&](const RecoilDecodeStats& got, const char* what) {
            EXPECT_EQ(got.sync_symbols, want.sync_symbols) << what << ", S " << S;
            EXPECT_EQ(got.skipped_positions, want.skipped_positions) << what << ", S " << S;
            EXPECT_EQ(got.cross_symbols, want.cross_symbols) << what << ", S " << S;
        };
        RecoilDecodeStats scalar;
        const auto ref = recoil_decode<Rans32, 32, u8>(units, meta, m.tables(), nullptr, &scalar);
        ASSERT_TRUE(ref == syms);
        expect_stats(scalar, "ScalarRangeFn");
        for (unsigned workers : {0u, 3u}) {
            std::optional<ThreadPool> pool;
            if (workers > 0) pool.emplace(workers);
            for (simd::Backend b : available_backends()) {
                RecoilDecodeStats got;
                const auto dec = recoil_decode<Rans32, 32, u8>(
                    units, meta, m.tables(), pool ? &*pool : nullptr, &got,
                    simd::SimdRangeFn<u8>{b});
                ASSERT_TRUE(dec == syms) << simd::backend_name(b);
                expect_stats(got, simd::backend_name(b));
            }
        }
    }
}

TEST(RecoilDecode, PairedSplitsMatchSerialOnEveryBackend) {
    // Tasks hold up to four splits wherever a decode has more splits than
    // lanes; every split count, lane count and backend must decode
    // bit-exactly. With 1, 2 and 4 lanes, S = 1 to 9 gives every task size
    // from 1 to 4 and every remainder.
    const std::size_t n = 800000;
    const std::vector<u32> split_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 2176};
    for (u32 bits : {11u, 12u, 16u}) {
        auto syms = test::geometric_symbols<u8>(n, 0.6, 256, 300 + bits);
        auto m = test::model_for<u8>(syms, bits, 256);
        auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 2400);
        ASSERT_GE(enc.metadata.num_splits(), 2176u);
        const std::vector<u8> ref = serial_decode<Rans32, 32, u8>(enc.bitstream, m.tables());
        ASSERT_EQ(ref, syms);
        std::span<const u16> units(enc.bitstream.units);
        for (u32 S : split_counts) {
            const RecoilMetadata meta = with_splits(enc.metadata, S);
            ASSERT_EQ(meta.num_splits(), S);
            expect_every_lane_count_matches<u8>(units, meta, m.tables(), ref, "static");
        }
        // Pairs of very unequal length, and splits whose phase 2 is empty
        // (the sync section starts right above the previous anchor): every
        // such split of the full metadata, kept next to its predecessor.
        RecoilMetadata uneven = enc.metadata;
        uneven.splits.clear();
        std::size_t abutting = 0;
        for (std::size_t k = 0; k < enc.metadata.splits.size(); ++k) {
            const bool abuts = k > 0 && enc.metadata.splits[k].min_index ==
                                            enc.metadata.splits[k - 1].anchor_index + 1;
            if (k == 3 || k == 4 || k == 1000 || abuts ||
                (k + 1 < enc.metadata.splits.size() &&
                 enc.metadata.splits[k + 1].min_index ==
                     enc.metadata.splits[k].anchor_index + 1)) {
                uneven.splits.push_back(enc.metadata.splits[k]);
                abutting += abuts;
            }
        }
        ASSERT_GT(abutting, 0u) << "no split with an empty phase 2 at n = " << bits;
        expect_every_lane_count_matches<u8>(units, uneven, m.tables(), ref, "uneven");

        // The conventional baseline pairs its partitions the same way.
        if (bits != 11) continue;
        for (u32 P : split_counts) {
            auto conv = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, P);
            for (unsigned workers : {0u, 1u, 3u}) {
                std::optional<ThreadPool> pool;
                if (workers > 0) pool.emplace(workers);
                for (simd::Backend b : available_backends()) {
                    auto dec = conventional_decode<Rans32, 32, u8>(
                        conv, m.tables(), pool ? &*pool : nullptr, simd::SimdRangeFn<u8>{b});
                    ASSERT_TRUE(dec == syms) << "conventional: P " << P << ", " << workers
                                             << " workers, " << simd::backend_name(b);
                }
            }
        }
    }

    // A u16 indexed stream, whole and through random-access windows.
    Xoshiro256 rng(399);
    std::vector<u16> syms(n);
    std::vector<u8> ids(n);
    std::vector<u64> c0(1024, 1), c1(1024, 1), c2(1024, 1);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 5) % 3);
        const double q = ids[i] == 0 ? 0.5 : ids[i] == 1 ? 0.9 : 0.98;
        u32 v = 0;
        while (v < 1023 && rng.uniform() < q) ++v;
        syms[i] = static_cast<u16>(v);
        (ids[i] == 0 ? c0 : ids[i] == 1 ? c1 : c2)[v]++;
    }
    const IndexedModelSet set(
        std::vector<StaticModel>{StaticModel(c0, 14), StaticModel(c1, 14), StaticModel(c2, 14)},
        ids);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(syms), set, 2400);
    ASSERT_GE(enc.metadata.num_splits(), 2176u);
    std::span<const u16> units(enc.bitstream.units);
    for (u32 S : split_counts) {
        const RecoilMetadata meta = with_splits(enc.metadata, S);
        ASSERT_EQ(meta.num_splits(), S);
        expect_every_lane_count_matches<u16>(units, meta, set.tables(), syms, "indexed");
        for (const auto& [lo, hi] :
             {std::pair<u64, u64>{1, 2}, {n / 3, 2 * n / 3}, {n - 100, n}}) {
            for (unsigned workers : {0u, 3u}) {
                std::optional<ThreadPool> pool;
                if (workers > 0) pool.emplace(workers);
                for (simd::Backend b : available_backends()) {
                    const simd::SimdRangeFn<u16> range{b};
                    auto part = recoil_decode_range<Rans32, 32, u16>(
                        units, meta, set.tables(), lo, hi, pool ? &*pool : nullptr, range);
                    ASSERT_TRUE(std::equal(part.begin(), part.end(), syms.begin() + lo,
                                           syms.begin() + hi))
                        << "range [" << lo << ", " << hi << "), S " << S << ", " << workers
                        << " workers, " << simd::backend_name(b);
                }
            }
        }
    }

    // A u16 static stream at n = 16 (the wide tables), as encoded: 48 splits.
    const auto wide = test::geometric_symbols<u16>(150000, 0.97, 4096, 74);
    const auto wide_model = test::model_for<u16>(wide, 16, 4096);
    const auto wide_enc =
        recoil_encode<Rans32, 32>(std::span<const u16>(wide), wide_model, 48);
    ASSERT_EQ(wide_enc.metadata.num_splits(), 48u);
    expect_every_lane_count_matches<u16>(std::span<const u16>(wide_enc.bitstream.units),
                                         wide_enc.metadata, wide_model.tables(), wide,
                                         "static u16");

    // A chunked stream: its (chunk, split) items pair across chunk edges,
    // each run with its own units, tables and output base.
    stream::ChunkedEncoder chunker({11, 136});
    std::vector<u8> all;
    for (int c = 0; c < 16; ++c) {
        auto chunk = test::geometric_symbols<u8>(4000 + 1499 * c, 0.3 + 0.04 * c, 256, 500 + c);
        chunker.add_chunk(chunk);
        all.insert(all.end(), chunk.begin(), chunk.end());
    }
    const stream::ChunkedStream full = chunker.finish();
    for (u32 S : split_counts) {
        const stream::ChunkedStream adapted = full.combined(S);
        for (unsigned workers : {0u, 1u, 3u}) {
            std::optional<ThreadPool> pool;
            if (workers > 0) pool.emplace(workers);
            for (simd::Backend b : available_backends()) {
                ASSERT_TRUE(stream::decode_chunked(adapted, pool ? &*pool : nullptr, b) == all)
                    << "chunked: S " << S << ", " << workers << " workers, "
                    << simd::backend_name(b);
            }
        }
    }
}

// Property sweep: random parameters, split decode == input.
struct DecodeSweepParam {
    std::size_t n;
    double q;
    u32 prob_bits;
    u32 splits;
};

class RecoilDecodeSweep : public ::testing::TestWithParam<DecodeSweepParam> {};

TEST_P(RecoilDecodeSweep, RoundTrip) {
    const auto p = GetParam();
    auto syms = test::geometric_symbols<u8>(p.n, p.q, 256,
                                            p.n * 31 + p.splits);
    auto m = test::model_for<u8>(syms, p.prob_bits, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, p.splits);
    ThreadPool pool(4);
    auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(enc.bitstream.units),
                                             enc.metadata, m.tables(), &pool);
    ASSERT_EQ(dec.size(), syms.size());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoilDecodeSweep,
    ::testing::Values(DecodeSweepParam{50000, 0.3, 8, 7},
                      DecodeSweepParam{80000, 0.5, 11, 16},
                      DecodeSweepParam{120000, 0.7, 12, 33},
                      DecodeSweepParam{60000, 0.9, 14, 9},
                      DecodeSweepParam{250000, 0.6, 11, 200},
                      DecodeSweepParam{40000, 0.1, 11, 12},
                      DecodeSweepParam{100000, 0.98, 16, 24}),
    [](const auto& info) {
        return "n" + std::to_string(info.param.n) + "_q" +
               std::to_string(static_cast<int>(info.param.q * 100)) + "_pb" +
               std::to_string(info.param.prob_bits) + "_s" +
               std::to_string(info.param.splits);
    });

}  // namespace
}  // namespace recoil
