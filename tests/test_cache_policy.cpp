// Tests for the LRU response cache and the resource governor: the cache's
// counter edges are pinned, a seeded-Zipf trace served through
// ContentServer::serve() hits exactly as often as a reference LRU model
// predicts, the governor unloads cold demand-loadable assets under a
// global byte budget without ever touching pinned assets or assets pinned
// by in-flight streams, and shared-lock hits stay exact under a storm of
// evictions and unloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <list>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/store.hpp"
#include "stream/chunked.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

SharedResponse wire_of(u64 n, u8 fill) {
    return std::make_shared<const FinishedResponse>(std::vector<u8>(n, fill));
}

/// Fresh store directory per test; removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const char* tag)
        : path(fs::temp_directory_path() /
               (std::string("recoil_policy_") + tag)) {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::vector<u8> asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

// ---- counter edges (satellite: audit rejected/eviction edges) ----

TEST(CachePolicy, ExactCapacityPayloadIsAdmittedNotRejected) {
    MetadataCache cache(100);
    cache.put(test::cache_key("a", 1), wire_of(40, 1));
    cache.put(test::cache_key("b", 1), wire_of(40, 2));

    // Exactly capacity: fits (alone), so it is an insertion that evicts
    // everything else — never a rejection.
    cache.put(test::cache_key("full", 1), wire_of(100, 3));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 100u);
    EXPECT_NE(cache.get(test::cache_key("full", 1)), nullptr);

    // The same holds after a clear(): the capacity comparison must not
    // drift against the (reset) current size.
    cache.clear();
    cache.put(test::cache_key("full2", 1), wire_of(100, 4));
    s = cache.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 100u);
    EXPECT_NE(cache.get(test::cache_key("full2", 1)), nullptr);

    // One byte over capacity IS a rejection, and not an insertion.
    cache.put(test::cache_key("over", 1), wire_of(101, 5));
    s = cache.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.insertions, 4u);
    EXPECT_EQ(s.entries, 1u);  // resident entry untouched
}

TEST(CachePolicy, OversizedRefreshDropsTheStaleResidentEntry) {
    MetadataCache cache(100);
    cache.put(test::cache_key("k", 1), wire_of(40, 1));
    ASSERT_NE(cache.get(test::cache_key("k", 1)), nullptr);

    // A refresh too large to cache: the resident entry is now known stale,
    // so it must not keep being served. Counted as rejected, NOT as an
    // eviction (nothing displaced it for space).
    cache.put(test::cache_key("k", 1), wire_of(101, 2));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(cache.get(test::cache_key("k", 1)), nullptr);
}

TEST(CachePolicy, ShrinkToEvictsColdestFirstAndCountsEvictions) {
    MetadataCache cache(1000);
    for (int i = 0; i < 5; ++i)
        cache.put(test::cache_key("k" + std::to_string(i), 1),
                  wire_of(100, u8(i)));
    cache.get(test::cache_key("k0", 1));  // refresh: k0 is now the hottest

    cache.shrink_to(250);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 200u);
    EXPECT_EQ(s.evictions, 3u);
    // k0 survived via recency.
    EXPECT_NE(cache.get(test::cache_key("k0", 1)), nullptr);
    EXPECT_NE(cache.get(test::cache_key("k4", 1)), nullptr);
    EXPECT_EQ(cache.get(test::cache_key("k1", 1)), nullptr);

    // shrink_to does not change the configured capacity: the cache grows
    // right back.
    cache.put(test::cache_key("k5", 1), wire_of(100, 9));
    EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(CachePolicy, HitBytesAccumulateForByteHitRate) {
    MetadataCache cache(1000);
    cache.put(test::cache_key("a", 1), wire_of(300, 1));
    cache.get(test::cache_key("a", 1));
    cache.get(test::cache_key("a", 1));
    cache.get(test::cache_key("missing", 1));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.hit_bytes, 600u);
    EXPECT_EQ(s.misses, 1u);
}

// ---- an entry is charged only its structural bytes ----

TEST(CacheCharge, ASecondClassAddsOnlyItsStructuralBytes) {
    // Entries view the asset's bitstream units (and an indexed asset's id
    // stream), so each client class of an asset adds only its header,
    // model, metadata and trailer to the cache's bytes, while hit_bytes
    // still counts every wire in full.
    const auto data = asset_bytes(120000, 17);
    ContentServer server;
    const auto file = server.store().encode_bytes("file", data, 64);
    const auto indexed =
        server.store().add_file("indexed", test::indexed_file(data, 64));
    const auto& ids = std::get<format::RecoilFile::IndexedPayload>(
                          indexed->file()->model)
                          .ids;
    stream::ChunkedEncoder enc({11, 8});
    for (u64 off = 0; off < data.size(); off += 30000)
        enc.add_chunk(std::span<const u8>(data).subspan(off, 30000));
    const auto chunked = server.store().add_chunked("chunked", enc.finish());
    u64 chunk_units = 0;
    for (const auto& c : chunked->chunked()->chunks)
        chunk_units += c.units.size() * 2;

    struct Shape {
        std::shared_ptr<const Asset> asset;
        u64 unit_bytes;
    };
    for (const Shape& shape :
         {Shape{file, file->file()->units.size() * 2},
          Shape{indexed, indexed->file()->units.size() * 2 + ids.size()},
          Shape{chunked, chunk_units}}) {
        const std::string& name = shape.asset->name();
        server.cache().clear();
        u64 charged = 0;
        for (const u32 cls : {4u, 16u}) {
            const ServeResult res = server.serve({name, cls, std::nullopt});
            ASSERT_TRUE(res.ok()) << name << ": " << res.detail;
            ASSERT_FALSE(res.stats.cache_hit);
            const u64 added = server.cache().stats().bytes - charged;
            charged += added;
            EXPECT_EQ(added, res.stats.wire_bytes - shape.unit_bytes)
                << name << " class " << cls
                << ": an entry is charged its wire minus the viewed units";
            EXPECT_EQ(added, res.wire->owned_bytes());
            EXPECT_LT(added * 4, res.stats.wire_bytes) << name;

            const u64 hit_bytes = server.cache().stats().hit_bytes;
            const ServeResult hit = server.serve({name, cls, std::nullopt});
            ASSERT_TRUE(hit.stats.cache_hit);
            EXPECT_EQ(server.cache().stats().hit_bytes - hit_bytes,
                      hit.stats.wire_bytes)
                << name << ": hit_bytes counts the whole wire";
        }
        EXPECT_EQ(server.cache().stats().entries, 2u);
    }
}

// ---- the serve path is an exact LRU ----

/// Mirror of MetadataCache's LRU discipline (hit refreshes recency; miss
/// inserts at the front after the combine; oversized entries skip the
/// cache; eviction pops the tail), fed with the observed entry charges.
/// The serve path must agree with this model exactly.
u64 simulate_lru_hits(const std::vector<u32>& plan, const std::vector<u64>& sizes,
                      u64 capacity) {
    std::list<std::pair<u32, u64>> lru;  // front = most recently used
    u64 bytes = 0, hits = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        auto it = std::find_if(lru.begin(), lru.end(),
                               [&](const auto& e) { return e.first == plan[i]; });
        if (it != lru.end()) {
            ++hits;
            lru.splice(lru.begin(), lru, it);
            continue;
        }
        if (sizes[i] > capacity) continue;
        lru.emplace_front(plan[i], sizes[i]);
        bytes += sizes[i];
        while (bytes > capacity) {
            bytes -= lru.back().second;
            lru.pop_back();
        }
    }
    return hits;
}

TEST(CachePolicy, ZipfTrafficHitRateIsExactAndDeterministic) {
    // Zipf(s=1.2) traffic over 32 client classes against a cache that holds
    // ~8 responses: the skewed head stays resident. Served serially through
    // ContentServer::serve() with seeded xoshiro, so the hit count is exact
    // — any change to the cache's order must consciously update this anchor.
    constexpr u32 kKeys = 32;
    constexpr int kRequests = 1200;
    const auto data = asset_bytes(60000, 41);

    // Shared traffic model (workload::zipf_plan): keys are parallelism
    // classes 1..kKeys.
    const std::vector<u32> plan = workload::zipf_plan(kKeys, kRequests, 1.2,
                                                      2024);

    // Size the cache off the real entry charge (the response's structural
    // bytes) so the test tracks format changes instead of hard-coding bytes.
    u64 entry_size = 0;
    {
        ContentServer probe;
        probe.store().encode_bytes("asset", data, 64);
        entry_size = probe.serve(ServeRequest{"asset", 1, std::nullopt})
                         .wire->owned_bytes();
    }
    const u64 capacity = entry_size * 8 + entry_size / 2;

    auto run = [&](std::vector<u64>* sizes_out) {
        ServerOptions opt;
        opt.cache_capacity_bytes = capacity;
        ContentServer server(opt);
        server.store().encode_bytes("asset", data, 64);
        for (const u32 key : plan) {
            // Serial serves keep the request order (and thus LRU state)
            // fully deterministic.
            const ServeResult res =
                server.serve(ServeRequest{"asset", key, std::nullopt});
            EXPECT_TRUE(res.ok()) << res.detail;
            if (sizes_out != nullptr)
                sizes_out->push_back(res.wire->owned_bytes());
        }
        return server.totals();
    };

    std::vector<u64> sizes;
    const auto first = run(&sizes);
    EXPECT_EQ(first.requests, static_cast<u64>(kRequests));
    EXPECT_EQ(first.failures, 0u);
    EXPECT_EQ(first.coalesced_requests, 0u);  // serial: nothing to coalesce

    // The serve path's hit count must match the reference LRU model exactly.
    const u64 expected_hits = simulate_lru_hits(plan, sizes, capacity);
    EXPECT_EQ(first.cache_hits, expected_hits);

    // Zipf concentration keeps the hot head resident: comfortably over half
    // the traffic hits even though only ~8 of 32 classes fit.
    const double hit_rate =
        static_cast<double>(first.cache_hits) / static_cast<double>(kRequests);
    EXPECT_GE(hit_rate, 0.5) << "hit rate regressed: " << hit_rate;
    EXPECT_LT(hit_rate, 1.0);

    // Bit-for-bit deterministic: a fresh identical run reproduces totals.
    const auto second = run(nullptr);
    EXPECT_EQ(second.cache_hits, first.cache_hits);
    EXPECT_EQ(second.wire_bytes, first.wire_bytes);
    EXPECT_EQ(second.bytes_saved, first.bytes_saved);
}

// ---- resource governor ----

/// Store + cache + governor under test control (no ContentServer): every
/// pressure decision is driven explicitly, so the assertions are exact.
struct GovernedRig {
    AssetStore store;
    MetadataCache cache;
    explicit GovernedRig(u64 cache_capacity = u64{1} << 20)
        : cache(cache_capacity) {}
};

TEST(Governor, UnloadsColdestBackedAssetsFirst) {
    TempDir dir("coldest");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    for (int i = 0; i < 4; ++i)
        rig.store.encode_bytes("a" + std::to_string(i),
                               asset_bytes(40000, 7 + i), 8);
    const u64 resident = rig.store.resident_bytes();
    ASSERT_GT(resident, 0u);
    const u64 per_asset = resident / 4;

    // Recency: a0 never accessed (coldest), then a1 < a2 < a3.
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident - per_asset / 2});
    rig.store.resolve("a1");
    rig.store.resolve("a2");
    rig.store.resolve("a3");

    ASSERT_TRUE(gov.over_budget());
    const u64 released = gov.enforce();
    EXPECT_GT(released, 0u);
    EXPECT_FALSE(gov.over_budget());
    // Only the coldest had to go; the budget gap was under one asset.
    EXPECT_EQ(rig.store.find("a0"), nullptr);
    EXPECT_NE(rig.store.find("a1"), nullptr);
    EXPECT_NE(rig.store.find("a2"), nullptr);
    EXPECT_NE(rig.store.find("a3"), nullptr);
    const GovernorStats s = gov.stats();
    EXPECT_EQ(s.unloads, 1u);
    EXPECT_EQ(s.bytes_unloaded, released);
    EXPECT_EQ(s.enforcements, 1u);
    // Under budget, a further pass is a no-op.
    EXPECT_EQ(gov.enforce(), 0u);
    EXPECT_NE(rig.store.find("a1"), nullptr);
    EXPECT_EQ(gov.stats().enforcements, 1u);

    // Unload is pressure relief, not eviction: the asset demand-loads back
    // under the same generation.
    auto back = rig.store.resolve("a0");
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(rig.store.is_resident(*back));
}

TEST(Governor, UnbackedAssetsAreNeverUnloaded) {
    // No backing store: unloading would be data loss, so the governor must
    // leave every asset resident and relieve pressure via the cache alone.
    GovernedRig rig(/*cache_capacity=*/u64{1} << 20);
    rig.store.encode_bytes("mem0", asset_bytes(40000, 31), 8);
    rig.store.encode_bytes("mem1", asset_bytes(40000, 32), 8);
    rig.cache.put(test::cache_key("k", 1), wire_of(5000, 1));

    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});
    gov.enforce();
    EXPECT_NE(rig.store.find("mem0"), nullptr);
    EXPECT_NE(rig.store.find("mem1"), nullptr);
    EXPECT_EQ(gov.stats().unloads, 0u);
    // The cache was shrunk as far as it goes (budget 1 leaves no share).
    EXPECT_EQ(rig.cache.stats().entries, 0u);
    EXPECT_GE(gov.stats().cache_shrinks, 1u);
}

TEST(Governor, InUseAssetsAreSkippedUntilReleased) {
    TempDir dir("inuse");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    rig.store.encode_bytes("held", asset_bytes(40000, 41), 8);

    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});
    {
        // An external holder (a stream's Prepared would be one): unloading
        // frees nothing, so the governor must skip it.
        std::shared_ptr<const Asset> ref = rig.store.find("held");
        ASSERT_NE(ref, nullptr);
        gov.enforce();
        EXPECT_NE(rig.store.find("held"), nullptr);
        EXPECT_GE(gov.stats().skipped_in_use, 1u);
    }
    // Reference dropped: the next pass reclaims it.
    gov.enforce();
    EXPECT_EQ(rig.store.find("held"), nullptr);
    EXPECT_EQ(gov.stats().unloads, 1u);
}

TEST(Governor, CacheShrinksOnlyWhenTheStoreCannotGetUnderBudget) {
    TempDir dir("shrink");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    rig.store.encode_bytes("a", asset_bytes(40000, 51), 8);
    rig.store.encode_bytes("b", asset_bytes(40000, 52), 8);
    rig.cache.put(test::cache_key("w1", 1), wire_of(4000, 1));
    rig.cache.put(test::cache_key("w2", 1), wire_of(4000, 2));
    const u64 resident = rig.store.resident_bytes();

    // Budget leaves room for one asset + one cache entry: the pass unloads
    // the idle asset, and — because the held one cannot go — the cache
    // gives back the rest.
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident / 2 + 4500});
    const std::shared_ptr<const Asset> held = rig.store.find("b");
    ASSERT_NE(held, nullptr);
    rig.store.resolve("b");  // a is coldest
    gov.enforce();
    EXPECT_EQ(rig.store.find("a"), nullptr);
    EXPECT_NE(rig.store.find("b"), nullptr);
    const GovernorStats s = gov.stats();
    EXPECT_EQ(s.unloads, 1u);
    EXPECT_GE(s.cache_shrinks, 1u);
    EXPECT_LE(rig.cache.current_bytes() + rig.store.resident_bytes(),
              gov.budget_bytes());
    EXPECT_EQ(rig.cache.stats().entries, 1u);  // one entry fit the share
    EXPECT_EQ(rig.cache.stats().evictions, 1u);
}

TEST(Governor, FutilePassesLatchOffTheHotPathProbe) {
    // A pass that cannot relieve the pressure (only unbacked assets) must
    // not be re-run by the hot path on every request: after a futile pass
    // pressure_actionable() goes false at the stuck usage level, and
    // re-arms when usage grows. Explicit enforce() always runs regardless.
    GovernedRig rig;
    rig.store.encode_bytes("mem", asset_bytes(40000, 65), 8);
    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});

    ASSERT_TRUE(gov.over_budget());
    EXPECT_TRUE(gov.pressure_actionable());
    EXPECT_EQ(gov.enforce(), 0u);  // nothing unloadable
    EXPECT_TRUE(gov.over_budget());
    EXPECT_FALSE(gov.pressure_actionable()) << "futile pass did not latch";

    // Usage grows past the stuck level: actionable again.
    rig.store.encode_bytes("mem2", asset_bytes(40000, 66), 8);
    EXPECT_TRUE(gov.pressure_actionable());
    EXPECT_EQ(gov.enforce(), 0u);
    EXPECT_FALSE(gov.pressure_actionable());
}

TEST(Governor, DisabledGovernorNeverActs) {
    GovernedRig rig;
    rig.store.encode_bytes("a", asset_bytes(30000, 61), 8);
    rig.cache.put(test::cache_key("k", 1), wire_of(100, 1));
    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{0});
    EXPECT_FALSE(gov.enabled());
    EXPECT_FALSE(gov.over_budget());
    EXPECT_EQ(gov.enforce(), 0u);
    EXPECT_NE(rig.store.find("a"), nullptr);
    EXPECT_EQ(rig.cache.stats().entries, 1u);
}

// ---- governor vs in-flight streams (end-to-end through ContentServer) ----

TEST(Governor, StreamPinsItsAssetAcrossAPressurePass) {
    TempDir dir("streampin");
    ServerOptions opt;
    opt.cache_capacity_bytes = u64{1} << 20;
    opt.mem_budget_bytes = 1;  // permanent pressure: every pass unloads all
    opt.max_frame_bytes = 4096;
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));
    const auto data = asset_bytes(60000, 71);
    server.store().encode_bytes("a", data, 16);

    const ServeResult ref = server.serve({"a", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    {
        ServeStream stream = server.serve_stream(
            {"a", 4, std::nullopt, kAcceptAll | kAcceptStreamed});
        auto first = stream.next_frame();
        ASSERT_TRUE(first.has_value());

        // Mid-stream pressure pass: the stream's Prepared holds the asset,
        // so the governor must skip it — unloading would free nothing.
        server.governor().enforce();
        EXPECT_NE(server.store().find("a"), nullptr)
            << "governor unloaded an asset pinned by an in-flight stream";
        EXPECT_GE(server.governor().stats().skipped_in_use, 1u);

        StreamReassembler client(opt.max_frame_bytes);
        client.feed(*first);
        while (auto frame = stream.next_frame()) client.feed(*frame);
        const ServeResult got = client.result();
        ASSERT_TRUE(got.ok()) << got.detail;
        EXPECT_EQ(*got.wire, *ref.wire);
    }
    // Stream gone (and its producer joined): the next pass may reclaim.
    server.governor().enforce();
    EXPECT_EQ(server.store().find("a"), nullptr);
    // And the asset demand-loads straight back, bit-identically.
    const ServeResult back = server.serve({"a", 4, std::nullopt});
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back.wire, *ref.wire);
}

TEST(Governor, AnUnloadedAssetKeepsNoPayloadAliveAndReloadsBitExact) {
    // An asset and the entries that view it are one unit: the governor
    // skips an asset a stream pins; once none does, enforce() unloads it,
    // its entries go with it, its mapping is freed, and the next request
    // demand-loads and recombines the same bytes.
    TempDir dir("unit");
    ServerOptions opt;
    opt.max_frame_bytes = 4096;
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));
    server.store().encode_bytes("a", asset_bytes(60000, 91), 16);
    std::vector<std::vector<u8>> want;
    for (const u32 cls : {4u, 8u}) {
        const ServeResult ref = server.serve({"a", cls, std::nullopt});
        ASSERT_TRUE(ref.ok());
        want.emplace_back(ref.wire->begin(), ref.wire->end());
    }
    ASSERT_TRUE(server.store().unload("a"));  // next resolve mmaps

    std::weak_ptr<const void> mapping;
    u64 master = 0;
    {
        auto stream = server.serve_stream(
            {"a", 4, std::nullopt, kAcceptAll | kAcceptStreamed});
        StreamReassembler client(opt.max_frame_bytes);
        client.feed(*stream.next_frame());
        client.feed(*stream.next_frame());
        {
            const auto asset = server.store().find("a");
            ASSERT_NE(asset, nullptr);
            ASSERT_TRUE(asset->file()->units.borrowed());  // views the map
            mapping = asset->file()->units.keeper();
            master = asset->master_bytes();
        }
        server.governor().set_budget(master - 1);  // the asset overflows it
        server.governor().enforce();  // the stream pins the asset: skipped
        EXPECT_NE(server.store().find("a"), nullptr);
        EXPECT_GE(server.governor().stats().skipped_in_use, 1u);
        while (auto frame = stream.next_frame()) client.feed(*frame);
        EXPECT_TRUE(*client.result().wire == want[0]);
    }

    // Both classes cached over the mapped asset, then the pressure pass.
    server.governor().set_budget(0);
    for (const u32 cls : {4u, 8u})
        ASSERT_TRUE(server.serve({"a", cls, std::nullopt}).ok());
    ASSERT_EQ(server.cache().stats().entries, 2u);
    EXPECT_FALSE(mapping.expired());
    const auto loads = server.store().backing()->stats().loads;
    server.governor().set_budget(master - 1);
    server.governor().enforce();
    EXPECT_EQ(server.store().find("a"), nullptr);
    EXPECT_EQ(server.governor().stats().unloads, 1u);
    EXPECT_EQ(server.cache().stats().entries, 0u)
        << "an entry outlived the asset it views";
    EXPECT_TRUE(mapping.expired())
        << "the unloaded asset's mapping is still pinned";

    server.governor().set_budget(0);
    for (std::size_t i = 0; i < 2; ++i) {
        const ServeResult back =
            server.serve({"a", i == 0 ? 4u : 8u, std::nullopt});
        ASSERT_TRUE(back.ok()) << back.detail;
        EXPECT_FALSE(back.stats.cache_hit);
        EXPECT_TRUE(*back.wire == want[i]);
    }
    EXPECT_EQ(server.store().backing()->stats().loads, loads + 1);
}

TEST(Governor, ACombineRacingAnUnloadCachesNothing) {
    // The put gate is residency, not the generation: a combine whose asset
    // is unloaded mid-flight still answers its request, but caches nothing,
    // since nothing would count the payload its entry views.
    TempDir dir("flight");
    const auto data = asset_bytes(40000, 95);
    ContentServer* self = nullptr;
    ServerOptions opt;
    opt.combine_hook = [&self](const std::string&) {
        self->store().unload("a");
    };
    ContentServer server(opt);
    self = &server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));
    server.store().encode_bytes("a", data, 16);

    ContentServer ref;
    ref.store().encode_bytes("a", data, 16);
    const ServeResult got = server.serve({"a", 4, std::nullopt});
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.serve({"a", 4, std::nullopt}).wire);
    EXPECT_EQ(server.store().find("a"), nullptr);
    EXPECT_EQ(server.cache().stats().insertions, 0u)
        << "an entry was cached for an unloaded asset";
    EXPECT_EQ(server.cache().stats().entries, 0u);
}

TEST(Governor, ReAddingAnAssetLeavesNoEntryPinningThePredecessor) {
    ContentServer server;
    server.store().encode_bytes("x", asset_bytes(40000, 93), 16);
    for (const u32 cls : {4u, 8u})
        ASSERT_TRUE(server.serve({"x", cls, std::nullopt}).ok());
    ASSERT_EQ(server.cache().stats().entries, 2u);
    std::weak_ptr<const void> old_units =
        server.store().find("x")->file()->units.keeper();

    const auto fresh = asset_bytes(40000, 94);
    server.store().encode_bytes("x", fresh, 16);
    EXPECT_EQ(server.cache().stats().entries, 0u);
    EXPECT_EQ(server.cache().stats().bytes, 0u);
    EXPECT_TRUE(old_units.expired())
        << "a cache entry pins the replaced asset's payload";

    ContentServer ref;
    ref.store().encode_bytes("x", fresh, 16);
    const ServeResult got = server.serve({"x", 4, std::nullopt});
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.stats.cache_hit);
    EXPECT_EQ(*got.wire, *ref.serve({"x", 4, std::nullopt}).wire);
}

TEST(Governor, UnloadRacingStreamsStaysBitExact) {
    // The TSan anchor: streams, materialized serves and explicit pressure
    // passes hammer the same small asset set under a budget that is always
    // exceeded. Whatever interleaving happens, every response must be
    // bit-exact and every stream must complete — losing the in-use race
    // costs a re-mmap, never bytes.
    TempDir dir("race");
    ServerOptions opt;
    opt.cache_capacity_bytes = u64{256} << 10;
    opt.mem_budget_bytes = 1;
    opt.max_frame_bytes = 2048;
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));

    constexpr int kAssets = 3;
    std::vector<std::vector<u8>> reference(kAssets);
    for (int i = 0; i < kAssets; ++i) {
        const std::string name = "a" + std::to_string(i);
        server.store().encode_bytes(name, asset_bytes(30000, 80 + i), 8);
        const ServeResult r = server.serve({name, 4, std::nullopt});
        ASSERT_TRUE(r.ok());
        reference[i].assign(r.wire->begin(), r.wire->end());
    }

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 12; ++i) {
                const int a = (t + i) % kAssets;
                const std::string name = "a" + std::to_string(a);
                ServeStream stream = server.serve_stream(
                    {name, 4, std::nullopt, kAcceptAll | kAcceptStreamed});
                StreamReassembler client(opt.max_frame_bytes);
                try {
                    while (auto frame = stream.next_frame())
                        client.feed(*frame);
                    const ServeResult got = client.result();
                    if (!got.ok() || *got.wire != reference[a]) ++failures;
                } catch (const std::exception&) {
                    ++failures;
                }
                const ServeResult mat = server.serve({name, 4, std::nullopt});
                if (!mat.ok() || *mat.wire != reference[a]) ++failures;
            }
        });
    }
    std::thread governor([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            server.governor().enforce();
            std::this_thread::yield();
        }
    });
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_relaxed);
    governor.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.totals().failures, 0u);
    // Everything still demand-loads after the storm.
    for (int i = 0; i < kAssets; ++i) {
        const ServeResult r =
            server.serve({"a" + std::to_string(i), 4, std::nullopt});
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.wire, reference[i]);
    }

    // Second storm: a budget that holds about one asset and its entries,
    // so the cache is not shrunk away by every pass and cache puts (four
    // classes per asset) race the unloads. An entry leaves with its asset:
    // afterwards no unloaded asset may be answered from the cache.
    const u64 master = server.store().backing()->info("a0")->container_bytes;
    server.governor().set_budget(master + master / 2);
    stop.store(false, std::memory_order_relaxed);
    threads.clear();
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 24; ++i) {
                const int a = (t + i) % kAssets;
                const std::string name = "a" + std::to_string(a);
                const u32 cls = u32{1} << (1 + (t + i / kAssets) % 4);
                ServeStream stream = server.serve_stream(
                    {name, cls, std::nullopt, kAcceptAll | kAcceptStreamed});
                StreamReassembler client;
                try {
                    while (auto frame = stream.next_frame())
                        client.feed(*frame);
                    const ServeResult got = client.result();
                    const ServeResult mat = server.serve({name, cls, std::nullopt});
                    if (!got.ok() || !mat.ok() || *got.wire != *mat.wire)
                        ++failures;
                } catch (const std::exception&) {
                    ++failures;
                }
            }
        });
    }
    std::thread governor2([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            server.governor().enforce();
            std::this_thread::yield();
        }
    });
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_relaxed);
    governor2.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.totals().failures, 0u);
    server.governor().set_budget(0);  // quiescent from here on
    for (int i = 0; i < kAssets; ++i) {
        const std::string name = "a" + std::to_string(i);
        const bool resident = server.store().find(name) != nullptr;
        const ServeResult r = server.serve({name, 4, std::nullopt});
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.wire, reference[i]);
        if (!resident) {
            EXPECT_FALSE(r.stats.cache_hit)
                << name << ": an entry outlived its unloaded asset";
        }
    }
    // Every asset is resident and cached now; unloading each one leaves
    // the cache empty.
    for (int i = 0; i < kAssets; ++i)
        ASSERT_TRUE(server.store().unload("a" + std::to_string(i)));
    EXPECT_EQ(server.cache().stats().entries, 0u);
    EXPECT_EQ(server.cache().stats().bytes, 0u);
}

TEST(CachePolicy, SharedLockHitsStormStaysExact) {
    // The TSan anchor for shared-lock hits: warm full and range hits read
    // the cache under its lock held shared while one thread serves fresh
    // classes into a cache sized for a few entries (so puts evict), and
    // another runs pressure passes and unloads (so entries leave with their
    // assets and demand-loads stamp recency). Every reply must be
    // bit-exact, and once the threads have joined the server's hit count
    // must equal the cache's.
    TempDir dir("storm");
    constexpr int kAssets = 2;
    constexpr u32 kClasses = 16;
    constexpr u64 kLo = 1000, kHi = 5000;
    std::vector<std::vector<u8>> data;
    ContentServer ref;
    for (int a = 0; a < kAssets; ++a) {
        data.push_back(asset_bytes(30000, 97 + a));
        ref.store().encode_bytes("s" + std::to_string(a), data.back(), 16);
    }
    // want[a][c]: class c's wire (1..kClasses); want[a][0]: the range.
    std::vector<std::vector<std::vector<u8>>> want(kAssets);
    u64 entry = 0;
    for (int a = 0; a < kAssets; ++a) {
        const std::string name = "s" + std::to_string(a);
        for (u32 c = 0; c <= kClasses; ++c) {
            ServeRequest req{name, c, std::nullopt};
            if (c == 0) req.range = {{kLo, kHi}};
            const ServeResult r = ref.serve(req);
            ASSERT_TRUE(r.ok()) << r.detail;
            want[a].emplace_back(r.wire->begin(), r.wire->end());
            entry = std::max(entry, r.wire->owned_bytes());
        }
    }

    ServerOptions opt;
    opt.cache_capacity_bytes = entry * 4;
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));
    for (int a = 0; a < kAssets; ++a)
        server.store().encode_bytes("s" + std::to_string(a), data[a], 16);
    // Pressure only once the cache is nearly full: a pass then unloads the
    // colder asset.
    server.governor().set_budget(server.store().resident_bytes() +
                                 opt.cache_capacity_bytes - entry / 2);

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<int> served{0};
    const auto check = [&](int a, u32 c) {
        ServeRequest req{"s" + std::to_string(a), c, std::nullopt};
        if (c == 0) req.range = {{kLo, kHi}};
        const ServeResult r = server.serve(req);
        if (!r.ok() || *r.wire != want[a][c]) ++failures;
        served.fetch_add(1, std::memory_order_relaxed);
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i)
                check((t + i) % kAssets, i % 2 == 0 ? 4u : 0u);
        });
    }
    threads.emplace_back([&] {
        for (int i = 0; i < 200; ++i)
            check(i % kAssets, 1 + static_cast<u32>(i / kAssets) % kClasses);
    });
    // Explicit unloads are paced by the traffic, one per 50 requests, so
    // however the threads are scheduled the warm keys still get hits.
    std::thread governor([&] {
        for (int next = 50; !stop.load(std::memory_order_relaxed);) {
            server.governor().enforce();
            if (served.load(std::memory_order_relaxed) >= next) {
                const int a = next / 50 % kAssets;
                server.store().unload("s" + std::to_string(a));
                next += 50;
            }
            std::this_thread::yield();
        }
    });
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_relaxed);
    governor.join();

    EXPECT_EQ(failures.load(), 0);
    const ContentServer::Totals totals = server.totals();
    EXPECT_EQ(totals.failures, 0u);
    EXPECT_EQ(totals.requests, 800u);
    EXPECT_GT(totals.cache_hits, 0u);
    EXPECT_EQ(totals.cache_hits, server.cache().stats().hits);
    EXPECT_LE(server.cache().stats().bytes, opt.cache_capacity_bytes);
}

}  // namespace
}  // namespace recoil::serve
