// Tests for the sharded serving layer (serve/shard_router.hpp): the
// consistent-hash ring's distribution and stability, zero-copy peer fetch
// (bit-exact with owning-shard serving, corrupt peer copies skipped), the
// budget-rebalance coordinator
// moving memory toward observed heat, per-shard governor isolation, the
// frozen shard_* metric names, and a multi-loop daemon fronting a
// ShardedServer under concurrent load — every wire bit-exact with the
// in-process router result.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "serve/shard_router.hpp"
#include "serve/store.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

#if defined(__SANITIZE_THREAD__)
#define RECOIL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RECOIL_TSAN 1
#endif
#endif

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("recoil-shard-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static std::atomic<u64>& counter() {
        static std::atomic<u64> c{0};
        return c;
    }
};

/// First asset name of the form `<stem>-<k>` that the router homes on
/// `want` — the tests need assets with known owners.
std::string name_on_shard(const ShardedServer& r, const std::string& stem,
                          u32 want) {
    for (u32 k = 0;; ++k) {
        std::string name = stem + "-" + std::to_string(k);
        if (r.shard_of(name) == want) return name;
    }
}

/// Flip one bit in every container in shard `i`'s partition.
void corrupt_partition(const fs::path& store_dir, u32 i) {
    for (const auto& entry :
         fs::directory_iterator(store_dir / ("shard-" + std::to_string(i))))
        if (entry.path().extension() == ".rca") test::flip_bit(entry.path());
}

TEST(ShardRing, KeysSpreadWithinConsistentHashBounds) {
    ShardedOptions opt;
    opt.shards = 8;
    ShardedServer r(opt);
    std::vector<u64> counts(8, 0);
    constexpr u32 kKeys = 40'000;
    for (u32 i = 0; i < kKeys; ++i)
        ++counts[r.shard_of("tenant/asset-" + std::to_string(i))];
    const double mean = static_cast<double>(kKeys) / 8.0;
    for (u32 i = 0; i < 8; ++i) {
        EXPECT_GT(counts[i], 0u) << "shard " << i << " got no keys";
        const double ratio = static_cast<double>(counts[i]) / mean;
        EXPECT_LT(ratio, 1.35) << "shard " << i << " overloaded";
        EXPECT_GT(ratio, 0.65) << "shard " << i << " starved";
    }
}

TEST(ShardRing, RoutingIsStableAndDeterministic) {
    ShardedOptions opt;
    opt.shards = 4;
    ShardedServer a(opt);
    ShardedServer b(opt);
    for (u32 i = 0; i < 500; ++i) {
        const std::string name = "key-" + std::to_string(i);
        const u32 home = a.shard_of(name);
        EXPECT_EQ(home, a.shard_of(name));  // stable within an instance
        EXPECT_EQ(home, b.shard_of(name));  // and across instances
        EXPECT_LT(home, 4u);
    }
}

TEST(ShardPeerFetch, AdoptedAssetServesBitExactWithOwningShard) {
    TempDir tmp;
    ShardedOptions opt;
    opt.shards = 2;
    opt.store_dir = tmp.path;
    ShardedServer r(opt);

    // Plant the asset in the WRONG shard's partition: its home is shard 0,
    // its bytes live only in shard 1's memory + disk partition.
    const std::string name = name_on_shard(r, "planted", 0);
    auto data = workload::gen_text(120'000, 77);
    r.shard(1).store().encode_bytes(name, data, 64);

    // Reference: the identical deterministic encode served by a plain
    // server — what the owning shard would have produced natively.
    ContentServer ref;
    ref.store().encode_bytes(name, data, 64);
    auto want = ref.serve(ServeRequest{name, 8, {}});
    ASSERT_TRUE(want.ok()) << want.detail;

    auto got = r.serve(ServeRequest{name, 8, {}});
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *want.wire);
    EXPECT_EQ(r.totals().peer_fetches, 1u);
    EXPECT_GT(r.totals().peer_fetch_bytes, 0u);

    // Now resident on the home shard: serving again fetches nothing.
    auto again = r.serve(ServeRequest{name, 8, {}});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again.wire, *want.wire);
    EXPECT_EQ(r.totals().peer_fetches, 1u);

    // A name nobody stores is a miss everywhere: counted, typed failure.
    auto missing = r.serve(ServeRequest{name_on_shard(r, "ghost", 0), 8, {}});
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.code, ErrorCode::unknown_asset);
    EXPECT_EQ(r.totals().peer_fetch_misses, 1u);
}

TEST(ShardPeerFetch, CorruptPeerCopyIsSkipped) {
    const auto data = workload::gen_text(120'000, 78);
    {
        // The only copy sits in the non-owner's partition, with one bit
        // flipped: nothing is adopted, the request fails typed, and the
        // fetch counts as a miss.
        TempDir tmp;
        ShardedOptions opt;
        opt.shards = 2;
        opt.store_dir = tmp.path;
        ShardedServer r(opt);
        const std::string name = name_on_shard(r, "flipped", 0);
        r.shard(1).store().encode_bytes(name, data, 64);
        corrupt_partition(tmp.path, 1);

        auto res = r.serve(ServeRequest{name, 8, {}});
        EXPECT_FALSE(res.ok());
        EXPECT_EQ(res.code, ErrorCode::unknown_asset);
        EXPECT_EQ(r.totals().peer_fetches, 0u);
        EXPECT_EQ(r.totals().peer_fetch_misses, 1u);
    }
    {
        // The lower-index peer holds a flipped copy, the other a good one:
        // the fetch skips the first and adopts the second.
        TempDir tmp;
        ShardedOptions opt;
        opt.shards = 3;
        opt.store_dir = tmp.path;
        ShardedServer r(opt);
        const std::string name = name_on_shard(r, "flipped", 0);
        r.shard(1).store().encode_bytes(name, data, 64);
        corrupt_partition(tmp.path, 1);
        r.shard(2).store().encode_bytes(name, data, 64);

        ContentServer ref;
        ref.store().encode_bytes(name, data, 64);
        auto want = ref.serve(ServeRequest{name, 8, {}});
        ASSERT_TRUE(want.ok()) << want.detail;

        auto got = r.serve(ServeRequest{name, 8, {}});
        ASSERT_TRUE(got.ok()) << got.detail;
        EXPECT_EQ(*got.wire, *want.wire);
        EXPECT_EQ(r.totals().peer_fetches, 1u);
        EXPECT_EQ(r.totals().peer_fetch_misses, 0u);
    }
}

TEST(ShardRebalance, BudgetMovesTowardObservedHeat) {
    constexpr u64 kTotal = 8u << 20;
    ShardedOptions opt;
    opt.shards = 2;
    opt.total_budget_bytes = kTotal;
    ShardedServer r(opt);

    const auto before = r.shard_budgets();
    ASSERT_EQ(before.size(), 2u);
    EXPECT_EQ(before[0] + before[1], kTotal);
    EXPECT_EQ(before[0], before[1]);  // even initial split

    const std::string hot = name_on_shard(r, "hot", 0);
    const std::string cold = name_on_shard(r, "cold", 1);
    auto data = workload::gen_text(60'000, 9);
    r.encode_bytes(hot, data, 64);
    r.encode_bytes(cold, data, 64);

    // Shard 0 takes 50 serves of its asset, shard 1 takes 2: the hit-byte
    // deltas the rebalancer reads diverge sharply.
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(r.serve(ServeRequest{hot, 8, {}}).ok());
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(r.serve(ServeRequest{cold, 8, {}}).ok());

    r.rebalance();
    const auto after = r.shard_budgets();
    EXPECT_EQ(after[0] + after[1], kTotal);   // conservation
    EXPECT_GT(after[0], after[1]);            // heat won
    EXPECT_GT(after[0], before[0]);
    // The floor holds: even the cold shard keeps its protected fraction.
    EXPECT_GE(after[1], static_cast<u64>(0.25 * (kTotal / 2)));
    EXPECT_EQ(r.totals().rebalances, 1u);
    EXPECT_GT(r.totals().budget_moved_bytes, 0u);
    // The governors saw the retarget, not just the router's bookkeeping.
    EXPECT_EQ(r.shard(0).governor().budget_bytes(), after[0]);
    EXPECT_EQ(r.shard(1).governor().budget_bytes(), after[1]);
}

TEST(ShardRebalance, AShardThatMissesEverythingGainsBudget) {
    // Shard 0's working set overflows its share, so every one of its
    // requests misses; shard 1 hits. Heat is the wire bytes a shard served,
    // hit or miss, so the overflowing shard wins budget instead of being
    // dealt only its floor at every pass.
    TempDir tmp;
    ShardedOptions opt;
    opt.shards = 2;
    opt.store_dir = tmp.path;  // unloads need a backing copy
    opt.total_budget_bytes = 200'000;
    ShardedServer r(opt);
    const auto before = r.shard_budgets();

    const std::string big1 = name_on_shard(r, "big1", 0);
    const std::string big2 = name_on_shard(r, "big2", 0);
    const std::string small = name_on_shard(r, "small", 1);
    r.encode_bytes(big1, workload::gen_text(200'000, 5), 64);
    r.encode_bytes(big2, workload::gen_text(200'000, 6), 64);
    r.encode_bytes(small, workload::gen_text(2'000, 7), 8);
    ASSERT_GT(r.shard(0).store().resident_bytes(), before[0]);

    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(r.serve(ServeRequest{i % 2 ? big2 : big1, 8, {}}).ok());
        ASSERT_TRUE(r.serve(ServeRequest{small, 8, {}}).ok());
    }
    ASSERT_EQ(r.shard(0).cache().stats().hits, 0u) << "shard 0 must thrash";
    ASSERT_GT(r.shard(1).cache().stats().hits, 0u);

    r.rebalance();
    const auto after = r.shard_budgets();
    EXPECT_EQ(after[0] + after[1], opt.total_budget_bytes);
    EXPECT_GT(after[0], before[0]) << "the missing shard was starved";
    EXPECT_GT(after[0], after[1]);
    EXPECT_GE(after[1], static_cast<u64>(0.25 * (opt.total_budget_bytes / 2)));
}

TEST(ShardRebalance, AStoreBackedRouterSplitsItsInitialBudgetByStoredBytes) {
    constexpr u64 kTotal = 8u << 20;
    TempDir tmp;
    ShardedOptions opt;
    opt.shards = 2;
    opt.store_dir = tmp.path;
    opt.total_budget_bytes = kTotal;
    {
        ShardedServer empty(opt);  // nothing stored yet: an even split
        const auto even = empty.shard_budgets();
        EXPECT_EQ(even[0], kTotal / 2);
        EXPECT_EQ(even[1], kTotal / 2);
        empty.encode_bytes(name_on_shard(empty, "big", 0),
                           workload::gen_text(300'000, 11), 64);
        empty.encode_bytes(name_on_shard(empty, "small", 1),
                           workload::gen_text(60'000, 12), 64);
    }
    const u64 stored0 = DiskStore(tmp.path / "shard-0").stored_bytes();
    const u64 stored1 = DiskStore(tmp.path / "shard-1").stored_bytes();
    ASSERT_GT(stored0, 3 * stored1);

    // Reopened over the stored corpus: each shard keeps its floor (a
    // quarter of the even share) and the rest follows the stored bytes.
    ShardedServer r(opt);
    const auto budgets = r.shard_budgets();
    const u64 floor = kTotal / 2 / 4;
    const u64 spare = kTotal - 2 * floor;
    EXPECT_EQ(budgets[1],
              floor + static_cast<u64>(static_cast<double>(spare) *
                                       (static_cast<double>(stored1) /
                                        static_cast<double>(stored0 + stored1))));
    EXPECT_EQ(budgets[0] + budgets[1], kTotal);
    EXPECT_GT(budgets[0], 3 * floor);
    EXPECT_EQ(r.shard(0).governor().budget_bytes(), budgets[0]);
    EXPECT_EQ(r.shard(1).governor().budget_bytes(), budgets[1]);
}

TEST(ShardGovernor, PressureOnOneShardLeavesPeersUntouched) {
    TempDir tmp;
    ShardedOptions opt;
    opt.shards = 2;
    opt.store_dir = tmp.path;       // unloads need a backing copy
    opt.total_budget_bytes = 160'000;  // 80 KB per shard
    ShardedServer r(opt);

    // Two big assets on shard 0 (resident far over its 80 KB budget), one
    // tiny asset on shard 1 (well under).
    const std::string big1 = name_on_shard(r, "big1", 0);
    const std::string big2 = name_on_shard(r, "big2", 0);
    const std::string tiny = name_on_shard(r, "tiny", 1);
    auto big_data = workload::gen_text(200'000, 5);
    auto tiny_data = workload::gen_text(2'000, 6);
    r.encode_bytes(big1, big_data, 64);
    r.encode_bytes(big2, big_data, 64);
    r.encode_bytes(tiny, tiny_data, 8);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(r.serve(ServeRequest{big1, 8, {}}).ok());
        ASSERT_TRUE(r.serve(ServeRequest{big2, 8, {}}).ok());
        ASSERT_TRUE(r.serve(ServeRequest{tiny, 8, {}}).ok());
    }
    r.shard(0).governor().enforce();
    r.shard(1).governor().enforce();

    const auto g0 = r.shard(0).governor().stats();
    const auto g1 = r.shard(1).governor().stats();
    EXPECT_GT(g0.enforcements, 0u) << "over-budget shard never enforced";
    EXPECT_GT(g0.unloads, 0u);
    EXPECT_EQ(g1.unloads, 0u) << "pressure leaked across shards";
    // Every serve still answers after the unloads (demand re-load).
    EXPECT_TRUE(r.serve(ServeRequest{big1, 8, {}}).ok());
    EXPECT_TRUE(r.serve(ServeRequest{tiny, 8, {}}).ok());
}

TEST(ShardMetrics, FrozenNamesAppearInRouterScrape) {
    ShardedOptions opt;
    opt.shards = 2;
    opt.total_budget_bytes = 1u << 20;
    ShardedServer r(opt);
    auto res = r.serve(ServeRequest{"!metrics.json", 1, {},
                                    kAcceptAll | kAcceptMetrics});
    ASSERT_TRUE(res.ok()) << res.detail;
    const std::string body(res.wire->begin(), res.wire->end());
    // Frozen in docs/observability.md (sharded catalogue): renaming any of
    // these breaks dashboards, so it breaks this test first.
    for (const char* name :
         {"shard_servers", "shard_routed_total", "shard_requests_total",
          "shard_wire_bytes_total", "shard_cache_hit_bytes_total",
          "shard_peer_fetches_total", "shard_peer_fetch_bytes_total",
          "shard_peer_fetch_misses_total", "shard_rebalances_total",
          "shard_budget_moved_bytes_total", "shard_budget_bytes",
          "shard_resident_bytes"}) {
        EXPECT_NE(body.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << "frozen metric missing from scrape: " << name;
    }
    // Per-shard labeled series ride the same families.
    EXPECT_NE(body.find("shard_requests_total{shard=\\\"0\\\"}"),
              std::string::npos);
    EXPECT_NE(body.find("shard_requests_total{shard=\\\"1\\\"}"),
              std::string::npos);
}

// ---- multi-loop daemon over a sharded backend ----

#ifdef RECOIL_TSAN
constexpr u32 kShardLoadThreads = 8;
constexpr u32 kShardLoadConnsPerThread = 4;
#else
constexpr u32 kShardLoadThreads = 16;
constexpr u32 kShardLoadConnsPerThread = 8;
#endif

TEST(ShardDaemon, MultiLoopShardedServingBitExactUnderLoad) {
    ShardedOptions opt;
    opt.shards = 2;
    ShardedServer router(opt);
    constexpr u32 kAssets = 8;
    std::vector<std::string> names;
    std::vector<SharedResponse> refs;
    for (u32 i = 0; i < kAssets; ++i) {
        names.push_back("fleet/asset-" + std::to_string(i));
        auto data = workload::gen_text(40'000 + 1000 * i, 1000 + i);
        router.encode_bytes(names.back(), data, 64);
        auto ref = router.serve(ServeRequest{names.back(), 8, {}});
        ASSERT_TRUE(ref.ok()) << ref.detail;
        refs.push_back(ref.wire);
    }

    net::DaemonOptions dopt;
    dopt.loops = 4;
    net::Daemon daemon(router, dopt);
    std::thread loop([&] { daemon.run(); });
    const u16 port = daemon.port();

    std::atomic<u32> failures{0};
    std::vector<std::thread> threads;
    for (u32 t = 0; t < kShardLoadThreads; ++t) {
        threads.emplace_back([&, t] {
            for (u32 i = 0; i < kShardLoadConnsPerThread; ++i) {
                try {
                    net::ClientOptions copt;
                    copt.port = port;
                    net::Client c(copt);
                    const u32 a = (t * 7 + i) % kAssets;
                    auto v1 = c.request(ServeRequest{names[a], 8, {}});
                    if (!v1.ok() || *v1.wire != *refs[a]) ++failures;
                    if ((t + i) % 2 == 0) {
                        auto v2 = c.request_streamed(ServeRequest{
                            names[a], 8, {},
                            kAcceptAll | kAcceptStreamed});
                        if (!v2.ok() || *v2.wire != *refs[a]) ++failures;
                    }
                } catch (const Error&) {
                    ++failures;
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u);

    daemon.begin_drain();
    loop.join();
    const auto s = daemon.stats();
    EXPECT_EQ(s.loops, 4u);
    EXPECT_GE(s.accepted, kShardLoadThreads * kShardLoadConnsPerThread);
    EXPECT_EQ(s.connections, 0u);
    EXPECT_GE(router.fleet_totals().requests,
              u64{kShardLoadThreads} * kShardLoadConnsPerThread);
    // Both shards actually served: the ring spread 8 assets over 2 shards.
    EXPECT_GT(router.shard(0).totals().requests, 0u);
    EXPECT_GT(router.shard(1).totals().requests, 0u);
}

}  // namespace
}  // namespace recoil::serve
