// Tests for the serve subsystem: LRU wire cache semantics, combined-metadata
// serving correctness (served wire decodes bit-exact against a direct full
// decode), byte-range serving across all three asset kinds (static file,
// indexed file, chunked stream), typed error codes, content negotiation, and
// the single flight: concurrent cold requests for one response key run
// exactly one combine and share the wire, a leader's failure reaches every
// follower, an eviction mid-flight keeps the wire out of the cache, and a
// cold request counts one cache miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <list>
#include <thread>
#include <unordered_map>

#include "core/recoil_decoder.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"
#include "workload/datasets.hpp"

namespace recoil::serve {
namespace {

SharedResponse make_wire(std::size_t n, u8 fill) {
    return std::make_shared<const FinishedResponse>(std::vector<u8>(n, fill));
}

TEST(MetadataCache, HitMissAndByteAccounting) {
    MetadataCache cache(1000);
    EXPECT_EQ(cache.get(test::cache_key("a", 8)), nullptr);
    cache.put(test::cache_key("a", 8), make_wire(400, 1));
    cache.put(test::cache_key("a", 16), make_wire(400, 2));
    auto hit = cache.get(test::cache_key("a", 8));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->bytes().front(), 1);

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 800u);
}

TEST(MetadataCache, LruEvictionOrderRespectsRecency) {
    MetadataCache cache(1000);
    cache.put(test::cache_key("a", 1), make_wire(400, 1));
    cache.put(test::cache_key("a", 2), make_wire(400, 2));
    ASSERT_NE(cache.get(test::cache_key("a", 1)), nullptr);  // refresh 1
    // Over capacity: evicts entry 2.
    cache.put(test::cache_key("a", 3), make_wire(400, 3));
    EXPECT_NE(cache.get(test::cache_key("a", 1)), nullptr);
    EXPECT_NE(cache.get(test::cache_key("a", 3)), nullptr);
    EXPECT_EQ(cache.get(test::cache_key("a", 2)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(MetadataCache, EvictionMatchesAReferenceLruPastOneVictimBatch) {
    // 300 equal entries fit, several victim batches' worth, and seeded
    // traffic over 900 keys mixes hits, misses and refreshes between
    // evictions. Every lookup must agree with a list-based LRU.
    constexpr u64 kFit = 300;
    constexpr u64 kEntry = 16;
    MetadataCache cache(kFit * kEntry);
    std::list<u32> order;  // most recent first
    std::unordered_map<u32, std::list<u32>::iterator> where;
    Xoshiro256 rng(99);
    for (int step = 0; step < 30000; ++step) {
        // Half the traffic lands on a 400-key head.
        const u32 key =
            static_cast<u32>(rng.below(2) == 0 ? rng.below(400) : rng.below(900));
        const ResponseKey k{1, key + 1};
        const auto it = where.find(key);
        ASSERT_EQ(cache.get(k) != nullptr, it != where.end()) << "step " << step;
        if (it != where.end()) {
            order.splice(order.begin(), order, it->second);
            continue;
        }
        cache.put(k, make_wire(kEntry, 1));
        order.push_front(key);
        where[key] = order.begin();
        if (order.size() > kFit) {
            where.erase(order.back());
            order.pop_back();
        }
    }
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, kFit);
    EXPECT_EQ(s.evictions, s.insertions - kFit);
}

TEST(MetadataCache, OversizedPayloadIsNotCached) {
    MetadataCache cache(100);
    cache.put(test::cache_key("a", 1), make_wire(500, 1));
    EXPECT_EQ(cache.get(test::cache_key("a", 1)), nullptr);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MetadataCache, EraseAssetDropsDerivedKeysToo) {
    // erase_asset(instance) drops every class and every range of that
    // asset instance, and nothing of any other.
    MetadataCache cache(10000);
    const std::vector<ResponseKey> mine = {
        {7, 1, 0, 0}, {7, 16, 0, 0}, {7, 0, 5, 9}, {7, 0, 0, 3}};
    const std::vector<ResponseKey> others = {
        {6, 1, 0, 0}, {8, 16, 0, 0}, {8, 0, 5, 9}};
    for (const ResponseKey& k : mine) cache.put(k, make_wire(10, 1));
    for (const ResponseKey& k : others) cache.put(k, make_wire(10, 2));
    cache.erase_asset(7);
    for (const ResponseKey& k : mine) EXPECT_EQ(cache.get(k), nullptr);
    for (const ResponseKey& k : others) EXPECT_NE(cache.get(k), nullptr);
    EXPECT_EQ(cache.stats().entries, others.size());
    EXPECT_EQ(cache.stats().evictions, 0u);
}

struct ServeFixture : ::testing::Test {
    static constexpr u64 kSymbols = 200000;
    static constexpr u32 kMaxSplits = 64;

    std::vector<u8> data;
    ContentServer server;
    std::shared_ptr<const Asset> asset;

    ServeFixture()
        : data(test::geometric_symbols<u8>(kSymbols, 0.6, 256, 11)),
          asset(server.store().encode_bytes("asset", data, kMaxSplits)) {}

    std::vector<u8> decode_full_wire(std::span<const u8> wire) {
        auto got = format::load_recoil_file(wire);
        auto model = got.build_static_model();
        ThreadPool pool(2);
        simd::SimdRangeFn<u8> range;
        return recoil_decode<Rans32, 32, u8>(std::span<const u16>(got.units),
                                             got.metadata, model.tables(), &pool,
                                             nullptr, range);
    }
};

TEST_F(ServeFixture, AssetKindsReportTheirShape) {
    EXPECT_EQ(asset->kind(), AssetKind::static_file);
    EXPECT_EQ(asset->payload_kind(), PayloadKind::file);
    EXPECT_EQ(asset->num_symbols(), kSymbols);
    EXPECT_NE(asset->file(), nullptr);
    EXPECT_EQ(asset->chunked(), nullptr);
    EXPECT_STREQ(kind_name(asset->kind()), "static_file");
}

TEST_F(ServeFixture, SecondRequestIsACacheHitWithIdenticalBytes) {
    const ServeRequest req{"asset", 16, std::nullopt};
    auto cold = server.serve(req);
    ASSERT_TRUE(cold.ok()) << cold.detail;
    EXPECT_FALSE(cold.stats.cache_hit);
    EXPECT_EQ(cold.payload, PayloadKind::file);

    auto warm = server.serve(req);
    ASSERT_TRUE(warm.ok()) << warm.detail;
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.wire, cold.wire);  // shared, not recombined or copied

    auto other = server.serve(ServeRequest{"asset", 8, std::nullopt});
    ASSERT_TRUE(other.ok());
    EXPECT_FALSE(other.stats.cache_hit);  // distinct parallelism, distinct entry

    const auto t = server.totals();
    EXPECT_EQ(t.requests, 3u);
    EXPECT_EQ(t.cache_hits, 1u);
    EXPECT_EQ(t.failures, 0u);
    EXPECT_EQ(t.bytes_saved, warm.stats.wire_bytes);
}

TEST_F(ServeFixture, CombinedWireDecodesBitExactAtEveryParallelism) {
    const std::vector<u8> direct = recoil_decode<Rans32, 32, u8>(
        std::span<const u16>(asset->file()->units), asset->file()->metadata,
        asset->file()->build_static_model().tables());
    ASSERT_EQ(direct, data);

    for (u32 p : {1u, 2u, 7u, 16u, 64u, 5000u}) {
        auto res = server.serve(ServeRequest{"asset", p, std::nullopt});
        ASSERT_TRUE(res.ok()) << res.detail;
        auto got = format::load_recoil_file(*res.wire);
        EXPECT_LE(got.metadata.num_splits(), std::min(p, kMaxSplits));
        EXPECT_EQ(res.stats.splits_served, got.metadata.num_splits());
        EXPECT_EQ(decode_full_wire(*res.wire), direct) << "parallelism " << p;
    }
}

TEST_F(ServeFixture, LowerParallelismShipsFewerWireBytes) {
    auto small = server.serve(ServeRequest{"asset", 2, std::nullopt});
    auto large = server.serve(ServeRequest{"asset", kMaxSplits, std::nullopt});
    ASSERT_TRUE(small.ok() && large.ok());
    EXPECT_LT(small.stats.wire_bytes, large.stats.wire_bytes);
    EXPECT_LE(large.stats.wire_bytes, asset->master_bytes());
}

TEST_F(ServeFixture, ChunkedAssetServesAndDecodes) {
    auto video = workload::gen_text(60000, 42);
    stream::ChunkedEncoder enc({11, 16});
    for (u64 off = 0; off < video.size(); off += 20000)
        enc.add_chunk(std::span<const u8>(video).subspan(off, 20000));
    auto chunked = server.store().add_chunked("video", enc.finish());
    EXPECT_EQ(chunked->kind(), AssetKind::chunked);
    EXPECT_EQ(chunked->payload_kind(), PayloadKind::chunked);

    auto res = server.serve(ServeRequest{"video", 8, std::nullopt});
    ASSERT_TRUE(res.ok()) << res.detail;
    EXPECT_EQ(res.payload, PayloadKind::chunked);
    auto got = stream::ChunkedStream::parse(*res.wire);
    EXPECT_LE(got.total_splits(), 8u + got.chunks.size());
    EXPECT_EQ(res.stats.splits_served, got.total_splits());
    EXPECT_EQ(stream::decode_chunked(got), video);
}

TEST_F(ServeFixture, RangeServingMatchesFullDecodeEverywhere) {
    Xoshiro256 rng(77);
    ThreadPool pool(2);
    for (int iter = 0; iter < 25; ++iter) {
        const u64 lo = rng.below(kSymbols - 1);
        const u64 hi = lo + 1 + rng.below(std::min<u64>(kSymbols - lo, 9000));
        auto res = server.serve(ServeRequest{"asset", 4, {{lo, hi}}});
        ASSERT_TRUE(res.ok()) << res.detail;
        EXPECT_EQ(res.payload, PayloadKind::range);
        auto part = decode_range_wire(*res.wire, &pool);
        ASSERT_EQ(part.size(), hi - lo);
        EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + lo))
            << "range [" << lo << ", " << hi << ")";
    }
}

TEST_F(ServeFixture, RangeEdgeCases) {
    const auto& meta = asset->file()->metadata;
    ASSERT_GE(meta.splits.size(), 8u);

    std::vector<std::pair<u64, u64>> ranges = {
        {0, 1},                        // single symbol at the stream start
        {kSymbols - 1, kSymbols},      // single symbol at the stream end
        {kSymbols / 2, kSymbols / 2 + 1},
        {0, kSymbols},                 // full range
        {meta.splits[2].min_index, meta.splits[3].min_index},  // one whole split
        {meta.splits[2].min_index + 5, meta.splits[3].min_index - 5},  // inside it
        {meta.splits.back().min_index, kSymbols},  // final split only
    };
    for (auto [lo, hi] : ranges) {
        auto res = server.serve(ServeRequest{"asset", 1, {{lo, hi}}});
        ASSERT_TRUE(res.ok()) << res.detail << " [" << lo << ", " << hi << ")";
        auto info = inspect_range_wire(*res.wire);
        EXPECT_EQ(info.lo, lo);
        EXPECT_EQ(info.hi, hi);
        ASSERT_EQ(info.segments.size(), 1u);  // single-stream asset
        EXPECT_LE(info.segments[0].cover_lo, lo);
        EXPECT_GE(info.segments[0].cover_hi, hi);
        EXPECT_FALSE(info.segments[0].indexed);
        auto part = decode_range_wire(*res.wire);
        ASSERT_EQ(part.size(), hi - lo);
        EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + lo));
    }

    // A range confined to one split ships a fragment, not the asset.
    auto res = server.serve(
        ServeRequest{"asset", 1, {{meta.splits[2].min_index + 5,
                                   meta.splits[3].min_index - 5}}});
    ASSERT_TRUE(res.ok());
    EXPECT_LT(res.stats.wire_bytes, asset->master_bytes() / 4);
    EXPECT_LE(res.stats.splits_served, 3u);
}

TEST_F(ServeFixture, RangeOverChunkedAssetDecomposesPerChunk) {
    const u64 chunk_size = 20000;
    auto video = workload::gen_text(5 * chunk_size, 42);
    stream::ChunkedEncoder enc({11, 16});
    for (u64 off = 0; off < video.size(); off += chunk_size)
        enc.add_chunk(std::span<const u8>(video).subspan(off, chunk_size));
    server.store().add_chunked("video", enc.finish());

    const std::vector<std::pair<u64, u64>> ranges = {
        {0, 100},                               // inside the first chunk
        {chunk_size - 50, chunk_size + 50},     // straddles one boundary
        {chunk_size / 2, 4 * chunk_size + 10},  // spans several whole chunks
        {5 * chunk_size - 1, 5 * chunk_size},   // last symbol of the stream
        {0, 5 * chunk_size},                    // everything
    };
    for (auto [lo, hi] : ranges) {
        auto res = server.serve(ServeRequest{"video", 1, {{lo, hi}}});
        ASSERT_TRUE(res.ok()) << res.detail << " [" << lo << ", " << hi << ")";
        auto info = inspect_range_wire(*res.wire);
        const u64 expect_segments =
            std::min<u64>(5, hi / chunk_size + (hi % chunk_size != 0 ? 1 : 0)) -
            lo / chunk_size;
        EXPECT_EQ(info.segments.size(), expect_segments)
            << "[" << lo << ", " << hi << ")";
        auto part = decode_range_wire(*res.wire);
        ASSERT_EQ(part.size(), hi - lo);
        EXPECT_TRUE(std::equal(part.begin(), part.end(), video.begin() + lo))
            << "range [" << lo << ", " << hi << ")";
    }

    // A one-chunk slice of a five-chunk stream ships a fraction of the master.
    auto slice = server.serve(ServeRequest{"video", 1, {{0, 100}}});
    ASSERT_TRUE(slice.ok());
    EXPECT_LT(slice.stats.wire_bytes,
              server.store().find("video")->master_bytes() / 3);
}

struct IndexedServeFixture : ::testing::Test {
    static constexpr u64 kSymbols = 120000;

    std::vector<u8> syms;
    std::vector<u8> ids;
    ContentServer server;
    std::shared_ptr<const Asset> asset;

    IndexedServeFixture() {
        // Two alternating contexts with very different skews — the hyperprior
        // shape of §3.1 where the model id is selected per symbol index.
        Xoshiro256 rng(19);
        syms.resize(kSymbols);
        ids.resize(kSymbols);
        std::vector<u64> c0(256, 1), c1(256, 1);
        for (u64 i = 0; i < kSymbols; ++i) {
            ids[i] = static_cast<u8>((i / 11) % 2);
            const double q = ids[i] == 0 ? 0.3 : 0.85;
            u32 v = 0;
            while (v < 255 && rng.uniform() < q) ++v;
            syms[i] = static_cast<u8>(v);
            (ids[i] == 0 ? c0 : c1)[syms[i]]++;
        }
        std::vector<StaticModel> models{StaticModel(c0, 12), StaticModel(c1, 12)};

        format::RecoilFile f;
        f.sym_width = 1;
        f.prob_bits = 12;
        format::RecoilFile::IndexedPayload payload;
        for (const StaticModel& m : models) {
            std::vector<u32> freq(m.alphabet());
            for (u32 s = 0; s < m.alphabet(); ++s) freq[s] = m.freq(s);
            payload.freqs.push_back(std::move(freq));
        }
        payload.ids = ids;

        IndexedModelSet set(std::move(models), ids);
        auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), set, 48);
        f.metadata = std::move(enc.metadata);
        f.units = std::move(enc.bitstream.units);
        f.model = std::move(payload);
        asset = server.store().add_file("latents", std::move(f));
    }
};

TEST_F(IndexedServeFixture, IndexedAssetServesCombinedWires) {
    EXPECT_EQ(asset->kind(), AssetKind::indexed_file);
    for (u32 p : {1u, 5u, 48u}) {
        auto res = server.serve(ServeRequest{"latents", p, std::nullopt});
        ASSERT_TRUE(res.ok()) << res.detail;
        auto got = format::load_recoil_file(*res.wire);
        ASSERT_TRUE(got.is_indexed());
        auto set = got.build_indexed_model();
        auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(got.units),
                                                 got.metadata, set.tables());
        EXPECT_EQ(dec, syms) << "parallelism " << p;
    }
}

TEST_F(IndexedServeFixture, RangeOverIndexedAssetMatchesEverywhere) {
    Xoshiro256 rng(7);
    ThreadPool pool(2);
    std::vector<std::pair<u64, u64>> ranges = {
        {0, 1}, {kSymbols - 1, kSymbols}, {0, kSymbols}};
    for (int iter = 0; iter < 20; ++iter) {
        const u64 lo = rng.below(kSymbols - 1);
        ranges.push_back(
            {lo, lo + 1 + rng.below(std::min<u64>(kSymbols - lo, 8000))});
    }
    for (auto [lo, hi] : ranges) {
        auto res = server.serve(ServeRequest{"latents", 1, {{lo, hi}}});
        ASSERT_TRUE(res.ok()) << res.detail << " [" << lo << ", " << hi << ")";
        auto info = inspect_range_wire(*res.wire);
        ASSERT_EQ(info.segments.size(), 1u);
        EXPECT_TRUE(info.segments[0].indexed);
        auto part = decode_range_wire(*res.wire, &pool);
        ASSERT_EQ(part.size(), hi - lo);
        EXPECT_TRUE(std::equal(part.begin(), part.end(), syms.begin() + lo))
            << "range [" << lo << ", " << hi << ")";
    }
}

/// One asset of each kind over the same tiny symbol stream, so boundary
/// behavior can be asserted uniformly.
struct RangeBoundaryFixture : ::testing::Test {
    static constexpr u64 kN = 4000;
    std::vector<u8> data;
    ContentServer server;

    RangeBoundaryFixture() : data(test::geometric_symbols<u8>(kN, 0.5, 256, 3)) {
        server.store().encode_bytes("static", data, 8);

        stream::ChunkedEncoder enc({11, 4});
        enc.add_chunk(std::span<const u8>(data).first(kN / 2));
        enc.add_chunk(std::span<const u8>(data).subspan(kN / 2));
        server.store().add_chunked("chunked", enc.finish());

        server.store().add_file("indexed", indexed_file(data));
    }

    static format::RecoilFile indexed_file(std::span<const u8> syms) {
        std::vector<u8> ids(syms.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
            ids[i] = static_cast<u8>(i % 2);
        std::vector<u64> c0(256, 1), c1(256, 1);
        for (std::size_t i = 0; i < syms.size(); ++i)
            (ids[i] == 0 ? c0 : c1)[syms[i]]++;
        std::vector<StaticModel> models{StaticModel(c0, 11), StaticModel(c1, 11)};
        format::RecoilFile f;
        f.sym_width = 1;
        f.prob_bits = 11;
        format::RecoilFile::IndexedPayload p;
        for (const StaticModel& m : models) {
            std::vector<u32> freq(m.alphabet());
            for (u32 s = 0; s < m.alphabet(); ++s) freq[s] = m.freq(s);
            p.freqs.push_back(std::move(freq));
        }
        p.ids = ids;
        IndexedModelSet set(std::move(models), ids);
        auto enc = recoil_encode<Rans32, 32>(syms, set, 4);
        f.metadata = std::move(enc.metadata);
        f.units = std::move(enc.bitstream.units);
        f.model = std::move(p);
        return f;
    }
};

TEST_F(RangeBoundaryFixture, EdgeRangesAreConsistentAcrossAssetKinds) {
    for (const char* name : {"static", "chunked", "indexed"}) {
        // Valid edges: first symbol, last symbol alone, range ending exactly
        // at the last symbol, everything.
        for (auto [lo, hi] : std::vector<std::pair<u64, u64>>{
                 {0, 1}, {kN - 1, kN}, {kN - 100, kN}, {0, kN}}) {
            auto res = server.serve(ServeRequest{name, 1, {{lo, hi}}});
            ASSERT_TRUE(res.ok())
                << name << " [" << lo << ", " << hi << "): " << res.detail;
            auto part = decode_range_wire(*res.wire);
            ASSERT_EQ(part.size(), hi - lo) << name;
            EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + lo))
                << name << " [" << lo << ", " << hi << ")";
        }
        // Degenerate and out-of-bounds ranges: one typed result for every
        // kind — invalid_range, never a crash or an unchecked slice.
        for (auto [lo, hi] : std::vector<std::pair<u64, u64>>{
                 {0, 0}, {kN / 2, kN / 2}, {kN, kN}, {5, 3}, {kN - 1, kN + 1},
                 {kN, kN + 1}}) {
            auto res = server.serve(ServeRequest{name, 1, {{lo, hi}}});
            EXPECT_EQ(res.code, ErrorCode::invalid_range)
                << name << " [" << lo << ", " << hi << ")";
            EXPECT_EQ(res.wire, nullptr);
        }
    }
}

TEST(RangeBoundary, OneSymbolAssetsServeTheirOnlyRange) {
    // A 1-symbol asset is the smallest slice a range can address: [0, 1)
    // must serve on every kind, and [0, 0) / [1, 1) must be typed errors.
    const std::vector<u8> one = {42};
    ContentServer server;
    server.store().encode_bytes("static", one, 4);
    stream::ChunkedEncoder enc({11, 4});
    enc.add_chunk(one);
    server.store().add_chunked("chunked", enc.finish());
    server.store().add_file("indexed", RangeBoundaryFixture::indexed_file(one));

    for (const char* name : {"static", "chunked", "indexed"}) {
        auto full = server.serve(ServeRequest{name, 4, std::nullopt});
        ASSERT_TRUE(full.ok()) << name << ": " << full.detail;

        auto res = server.serve(ServeRequest{name, 1, {{0, 1}}});
        ASSERT_TRUE(res.ok()) << name << ": " << res.detail;
        EXPECT_EQ(decode_range_wire(*res.wire), one) << name;

        for (auto [lo, hi] : std::vector<std::pair<u64, u64>>{
                 {0, 0}, {1, 1}, {0, 2}, {1, 2}}) {
            auto bad = server.serve(ServeRequest{name, 1, {{lo, hi}}});
            EXPECT_EQ(bad.code, ErrorCode::invalid_range)
                << name << " [" << lo << ", " << hi << ")";
        }
    }
}

TEST_F(RangeBoundaryFixture, SimdRangeDecodeIsBitExactWithScalarAtEveryEdge) {
    // The vectorized range decode (SimdRangeFn over the indexed id slice)
    // against the pinned scalar path, swept across group boundaries (the
    // kernels work in 32-symbol groups) and slice edges, where the scalar
    // head and tail hand over to the kernels. On a host without AVX the two
    // decodes collapse to the same path and the sweep still pins
    // wire-vs-source bit-exactness.
    const simd::Backend best = simd::pick_backend();
    const std::vector<u64> los = {0,      1,          31,         32,
                                  33,     63,         64,         65,
                                  kN / 2, kN / 2 + 1, kN - 33,    kN - 32,
                                  kN - 31, kN - 1};
    const std::vector<u64> spans = {1, 2, 31, 32, 33, 64, 100, kN};
    for (const char* name : {"static", "chunked", "indexed"}) {
        for (u64 lo : los) {
            for (u64 span : spans) {
                const u64 hi = std::min<u64>(lo + span, kN);
                if (hi <= lo) continue;
                auto res = server.serve(ServeRequest{name, 1, {{lo, hi}}});
                ASSERT_TRUE(res.ok())
                    << name << " [" << lo << ", " << hi << "): " << res.detail;
                const auto vec =
                    decode_range_wire(*res.wire, nullptr, best);
                const auto sca = decode_range_wire(*res.wire, nullptr,
                                                   simd::Backend::Scalar);
                ASSERT_EQ(vec.size(), hi - lo) << name;
                EXPECT_EQ(vec, sca)
                    << name << " [" << lo << ", " << hi
                    << "): vector and scalar range decodes diverge";
                EXPECT_TRUE(
                    std::equal(vec.begin(), vec.end(), data.begin() + lo))
                    << name << " [" << lo << ", " << hi << ")";
            }
        }
    }
}

TEST_F(ServeFixture, RangeResponsesAreCachedUnderTheAssetKey) {
    const ServeRequest req{"asset", 1, {{1000, 2000}}};
    auto cold = server.serve(req);
    auto warm = server.serve(req);
    ASSERT_TRUE(cold.ok() && warm.ok());
    EXPECT_FALSE(cold.stats.cache_hit);
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.wire, cold.wire);

    server.store().erase("asset");
    auto gone = server.serve(req);
    EXPECT_FALSE(gone.ok());  // asset and its cached ranges are both gone
    EXPECT_EQ(gone.code, ErrorCode::unknown_asset);
}

TEST_F(ServeFixture, FailuresAreTypedNotThrown) {
    auto unknown = server.serve(ServeRequest{"nope", 4, std::nullopt});
    EXPECT_EQ(unknown.code, ErrorCode::unknown_asset);
    EXPECT_NE(unknown.detail.find("unknown asset"), std::string::npos);
    EXPECT_STREQ(error_name(unknown.code), "unknown_asset");

    // Range validation happens at the API boundary with a typed error, not
    // via an invariant throw from plan_range.
    auto empty_range = server.serve(ServeRequest{"asset", 4, {{5, 5}}});
    EXPECT_EQ(empty_range.code, ErrorCode::invalid_range);
    auto inverted = server.serve(ServeRequest{"asset", 4, {{7, 3}}});
    EXPECT_EQ(inverted.code, ErrorCode::invalid_range);
    auto past_end = server.serve(ServeRequest{"asset", 4, {{0, kSymbols + 1}}});
    EXPECT_EQ(past_end.code, ErrorCode::invalid_range);
    EXPECT_NE(past_end.detail.find(std::to_string(kSymbols)), std::string::npos);

    EXPECT_EQ(server.totals().failures, 4u);
    EXPECT_EQ(server.totals().range_requests, 3u);
}

TEST_F(ServeFixture, AcceptFlagsNegotiateTheWireForm) {
    // A client that cannot decode file containers is refused, not surprised.
    ServeRequest no_file{"asset", 4, std::nullopt};
    no_file.accept = kAcceptRange;
    EXPECT_EQ(server.serve(no_file).code, ErrorCode::not_acceptable);

    ServeRequest no_range{"asset", 4, {{0, 10}}};
    no_range.accept = kAcceptFile;
    EXPECT_EQ(server.serve(no_range).code, ErrorCode::not_acceptable);

    auto chunked_data = workload::gen_text(30000, 1);
    stream::ChunkedEncoder enc;
    enc.add_chunk(chunked_data);
    server.store().add_chunked("chunked", enc.finish());
    ServeRequest no_chunked{"chunked", 4, std::nullopt};
    no_chunked.accept = kAcceptFile | kAcceptRange;
    EXPECT_EQ(server.serve(no_chunked).code, ErrorCode::not_acceptable);

    // Ranges over chunked assets are a supported wire form, not an error.
    ServeRequest chunked_range{"chunked", 4, {{0, 10}}};
    auto res = server.serve(chunked_range);
    ASSERT_TRUE(res.ok()) << res.detail;
    EXPECT_EQ(decode_range_wire(*res.wire),
              std::vector<u8>(chunked_data.begin(), chunked_data.begin() + 10));
}

TEST_F(ServeFixture, CorruptWireIsRejected) {
    auto res = server.serve(ServeRequest{"asset", 1, {{100, 400}}});
    ASSERT_TRUE(res.ok());
    std::vector<u8> mangled(res.wire->begin(), res.wire->end());
    mangled[mangled.size() / 2] ^= 0x40;
    EXPECT_THROW(decode_range_wire(mangled), Error);
    EXPECT_THROW(inspect_range_wire(std::vector<u8>{'R', 'C', 'R', '2'}), Error);
}

TEST_F(ServeFixture, HostileWireWithValidChecksumIsRejected) {
    // An attacker can recompute the FNV trailer, so structural validation
    // must hold on its own: poisoned freq tables (table-builder overflow)
    // and wrap-around length fields must both be rejected, not decoded.
    auto res = server.serve(ServeRequest{"asset", 1, {{100, 400}}});
    ASSERT_TRUE(res.ok());
    auto reseal = [](std::vector<u8> w) {
        const u64 sum = format::fnv1a(
            std::span<const u8>(w.data(), w.size() - 8));
        for (int i = 0; i < 8; ++i)
            w[w.size() - 8 + i] = static_cast<u8>(sum >> (8 * i));
        return w;
    };

    // RCR2 layout: header magic(4) ver(1) sym(1) rsvd(2) lo(8) hi(8)
    // segs(4) = 28; segment base(8) flags(1) prob(1) rsvd(2) lo(8) hi(8)
    // first_split(4) = 32, then alpha(4) + 256 freq words.
    const std::size_t freq_off = 28 + 32 + 4;
    std::vector<u8> bad_freq(res.wire->begin(), res.wire->end());
    for (int i = 0; i < 4; ++i) bad_freq[freq_off + i] = 0xFF;
    EXPECT_THROW(decode_range_wire(reseal(std::move(bad_freq))), Error);

    const std::size_t meta_len_off = freq_off + 4 * 256;
    std::vector<u8> bad_len(res.wire->begin(), res.wire->end());
    for (int i = 0; i < 8; ++i) bad_len[meta_len_off + i] = 0xFF;
    EXPECT_THROW(decode_range_wire(reseal(std::move(bad_len))), Error);
}

TEST_F(ServeFixture, ReplacingAnAssetInvalidatesCachedResponses) {
    const ServeRequest req{"asset", 8, std::nullopt};
    ASSERT_FALSE(server.serve(req).stats.cache_hit);
    ASSERT_TRUE(server.serve(req).stats.cache_hit);

    auto v2 = test::geometric_symbols<u8>(kSymbols, 0.4, 256, 99);
    server.store().encode_bytes("asset", v2, kMaxSplits);
    auto res = server.serve(req);
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.stats.cache_hit);  // fresh uid, not the v1 entry
    EXPECT_EQ(decode_full_wire(*res.wire), v2);
}

TEST_F(ServeFixture, MasterBytesMatchesActualSerialization) {
    EXPECT_EQ(asset->master_bytes(),
              format::save_recoil_file(*asset->file()).size());

    auto bytes = workload::gen_text(30000, 5);
    stream::ChunkedEncoder enc;
    for (u64 off = 0; off < bytes.size(); off += 10000)
        enc.add_chunk(std::span<const u8>(bytes).subspan(off, 10000));
    auto s = enc.finish();
    EXPECT_EQ(s.serialized_size(), s.serialize().size());
}

TEST_F(ServeFixture, EvictionUnderPressureKeepsTheHotEntry) {
    // Capacity for ~2 entries (an entry is charged its structural bytes):
    // the repeatedly-requested class must survive a stream of one-off
    // parallelisms.
    auto probe = server.serve(ServeRequest{"asset", 16, std::nullopt});
    ASSERT_TRUE(probe.ok());
    ServerOptions opt;
    opt.cache_capacity_bytes = probe.wire->owned_bytes() * 5 / 2;
    ContentServer small(opt);
    small.store().add_file("asset", *asset->file());

    ASSERT_FALSE(small.serve({"asset", 16, std::nullopt}).stats.cache_hit);
    for (u32 p = 2; p < 8; ++p) {
        ASSERT_TRUE(small.serve(ServeRequest{"asset", p, std::nullopt}).ok());
        EXPECT_TRUE(small.serve({"asset", 16, std::nullopt}).stats.cache_hit)
            << "hot entry evicted after one-off parallelism " << p;
    }
    EXPECT_GT(small.cache().stats().evictions, 0u);
}

// ---- single flight ----

std::vector<u8> small_asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

/// Serve `req` from `n` threads at once. The server's combine_hook holds
/// the leader on the future `release` feeds; this fulfils it only once the
/// other n-1 requests are parked on the leader's flight, so every request
/// is a cold miss on one flight — deterministically, with no sleeps.
std::vector<ServeResult> serve_held_stampede(ContentServer& server,
                                             const ServeRequest& req,
                                             unsigned n,
                                             std::promise<void>& release) {
    std::vector<ServeResult> results(n);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([&, i] { results[i] = server.serve(req); });
    while (server.coalescing_waiters() != n - 1) std::this_thread::yield();
    release.set_value();
    for (auto& t : threads) t.join();
    return results;
}

TEST(SingleFlight, ColdRequestsCoalesceIntoOneCombine) {
    std::atomic<int> combines{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        ++combines;
        gate.wait();  // hold the leader until every follower is parked
    };
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(80000, 31), 32);

    constexpr unsigned kN = 8;
    const std::vector<ServeResult> results = serve_held_stampede(
        server, ServeRequest{"asset", 8, std::nullopt}, kN, release);

    EXPECT_EQ(combines.load(), 1);  // exactly one combine ran
    unsigned leaders = 0, followers = 0;
    SharedResponse shared_wire;
    for (const ServeResult& res : results) {
        ASSERT_TRUE(res.ok()) << res.detail;
        EXPECT_FALSE(res.stats.cache_hit);
        if (res.stats.coalesced) {
            ++followers;
        } else {
            ++leaders;
        }
        if (shared_wire == nullptr) shared_wire = res.wire;
        EXPECT_EQ(res.wire, shared_wire);  // the same buffer, not a copy
    }
    EXPECT_EQ(leaders, 1u);
    EXPECT_EQ(followers, kN - 1);

    const auto t = server.totals();
    EXPECT_EQ(t.requests, kN);
    EXPECT_EQ(t.coalesced_requests, kN - 1);
    EXPECT_EQ(t.bytes_saved, (kN - 1) * shared_wire->size());

    // Warm traffic: the cache returns the same shared buffer, no copy.
    auto warm = server.serve(ServeRequest{"asset", 8, std::nullopt});
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.wire, shared_wire);
    EXPECT_EQ(combines.load(), 1);
}

TEST(SingleFlight, LeaderFailurePropagatesToEveryCoalescedRequest) {
    // Requests park on a flight whose leader fails mid-combine: everyone
    // must get the typed failure, and a retry must start a fresh flight.
    std::atomic<int> combines{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        const int n = ++combines;
        if (n == 1) {
            gate.wait();
            raise("injected combine failure");
        }
    };
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(60000, 5), 16);

    constexpr unsigned kN = 4;
    const std::vector<ServeResult> results = serve_held_stampede(
        server, ServeRequest{"asset", 4, std::nullopt}, kN, release);

    for (const ServeResult& res : results) {
        EXPECT_EQ(res.code, ErrorCode::internal);
        EXPECT_NE(res.detail.find("injected"), std::string::npos);
    }
    EXPECT_EQ(server.totals().failures, kN);

    // The failed flight is gone; a retry combines successfully.
    auto retry = server.serve(ServeRequest{"asset", 4, std::nullopt});
    ASSERT_TRUE(retry.ok()) << retry.detail;
    EXPECT_EQ(combines.load(), 2);
}

TEST(SingleFlight, AColdRequestCountsOneMiss) {
    // The leader rechecks the cache after winning the flight; that recheck
    // is the same request, so its miss must not count a second time.
    {
        ContentServer server;
        server.store().encode_bytes("asset", small_asset_bytes(60000, 7), 16);
        ASSERT_FALSE(server.serve({"asset", 4, std::nullopt}).stats.cache_hit);
        ASSERT_TRUE(server.serve({"asset", 4, std::nullopt}).stats.cache_hit);
        const CacheStats s = server.cache().stats();
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 1u);
    }
    // N cold requests held on one flight: N misses (one each), no hits, and
    // the leader's single insertion.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) { gate.wait(); };
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(60000, 7), 16);
    constexpr unsigned kN = 6;
    for (const ServeResult& res : serve_held_stampede(
             server, ServeRequest{"asset", 4, std::nullopt}, kN, release))
        ASSERT_TRUE(res.ok()) << res.detail;
    const CacheStats s = server.cache().stats();
    EXPECT_EQ(s.misses, kN);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.insertions, 1u);
}

TEST(SingleFlight, EvictionMidFlightDoesNotResurrectTheCacheEntry) {
    // Regression: a single-flight combine that finishes after an erase()
    // used to put its wire back into the cache — a stale entry for a deleted
    // asset, pinned until LRU pressure. The put must be gated on the asset
    // still being current.
    ContentServer* hook_target = nullptr;
    std::atomic<int> combines{0};
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        // Evict while the combine is in flight (deterministic: the hook runs
        // after the flight is registered and before the wire is built).
        if (++combines == 1) hook_target->store().erase("asset");
    };
    ContentServer server(opt);
    hook_target = &server;
    const auto v1 = small_asset_bytes(60000, 21);
    server.store().encode_bytes("asset", v1, 16);

    const ServeRequest req{"asset", 8, std::nullopt};
    auto res = server.serve(req);
    ASSERT_TRUE(res.ok()) << res.detail;  // the in-flight request completes
    EXPECT_EQ(server.cache().stats().entries, 0u)
        << "stale wire re-entered the cache after eviction";

    // The asset is gone everywhere; a fresh add under the same name must
    // combine anew (miss), not inherit anything from the evicted flight.
    EXPECT_EQ(server.serve(req).code, ErrorCode::unknown_asset);
    server.store().encode_bytes("asset", small_asset_bytes(60000, 22), 16);
    auto fresh = server.serve(req);
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE(fresh.stats.cache_hit);
    EXPECT_EQ(combines.load(), 2);

    // Replacement mid-flight is gated identically: the old generation's
    // wire must not enter the cache under the replaced asset's key.
    opt.combine_hook = [&](const std::string&) {
        if (++combines == 3)
            hook_target->store().encode_bytes("asset", v1, 16);  // replace
    };
    ContentServer replaced(opt);
    hook_target = &replaced;
    combines = 2;
    replaced.store().encode_bytes("asset", small_asset_bytes(50000, 23), 16);
    ASSERT_TRUE(replaced.serve(req).ok());
    EXPECT_EQ(replaced.cache().stats().entries, 0u)
        << "replaced-generation wire entered the cache";
}

TEST(ServeCache, OversizedPayloadsCountAsRejected) {
    // A payload larger than the whole cache is not cached — and no longer
    // silently: the rejected counter surfaces a mis-sized capacity.
    ServerOptions opt;
    opt.cache_capacity_bytes = 64;  // smaller than any real wire
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(50000, 27), 16);

    const ServeRequest req{"asset", 4, std::nullopt};
    ASSERT_TRUE(server.serve(req).ok());
    ASSERT_TRUE(server.serve(req).ok());
    const CacheStats s = server.cache().stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(server.totals().cache_hits, 0u);
}

TEST(ServeCache, SummarizeCountsRequestsFailuresAndWarmHits) {
    ContentServer server;
    server.store().encode_bytes("asset", small_asset_bytes(100000, 13), 64);

    std::vector<ServeRequest> reqs;
    for (u32 p : {2u, 8u, 16u, 2u, 8u, 64u})
        reqs.push_back(ServeRequest{"asset", p, std::nullopt});
    reqs.push_back(ServeRequest{"asset", 1, {{500, 900}}});
    reqs.push_back(ServeRequest{"missing", 1, std::nullopt});

    std::vector<ServeResult> results;
    for (const auto& r : reqs) results.push_back(server.serve(r));
    const BatchStats batch = summarize(results);
    EXPECT_EQ(batch.requests, reqs.size());
    EXPECT_EQ(batch.failures, 1u);
    EXPECT_GE(batch.max_latency_seconds, 0.0);

    // A second identical round is fully warm: every valid request hits.
    std::vector<ServeResult> warm;
    for (const auto& r : reqs) warm.push_back(server.serve(r));
    EXPECT_EQ(summarize(warm).cache_hits, reqs.size() - 1);
}

}  // namespace
}  // namespace recoil::serve
