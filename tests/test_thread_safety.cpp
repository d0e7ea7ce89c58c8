// Regression tests for the lock-discipline holes surfaced by wiring Clang
// Thread Safety Analysis through the serve stack (src/util/
// thread_annotations.hpp). Each test hammers the exact seam that was fixed
// so the CI TSan job (which builds this file) sees any reintroduction:
//
//  1. AssetStore::attach_backing used to read disk_ (guarded by mu_) after
//     dropping mu_ when rebinding disk_* metrics. The fix snapshots the
//     handle while locked; this test races attach/rebind against readers
//     resolving through the store and polling the registry.
//
//  2. ContentServer's Flight is published through the flights_ map and
//     read by every follower under its own mutex; streams share it with
//     serve(). This test parks a streamed leader inside its combine until a
//     pack of streamed followers waits on the flight, so any unguarded
//     write to the flight's outcome would be a follower-visible race.
//
//  3. A payload's FnvMemo is read and filled without a lock by every
//     thread that serializes the payload into an unframed sink. Threads
//     fold one payload from the same states at once, so they learn and
//     recall the same low bytes concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "format/wire_io.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

constexpr u8 kAcceptStream = kAcceptAll | kAcceptStreamed;

std::vector<u8> asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

/// Fresh store directory per test; removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const char* tag)
        : path(fs::temp_directory_path() /
               (std::string("recoil_tsa_") + tag)) {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(ThreadSafety, AttachBackingRacesReadersAndMetricsPolls) {
    TempDir dir("attach");
    AssetStore seeded;
    seeded.attach_backing(std::make_shared<DiskStore>(dir.path));
    seeded.encode_bytes("a", asset_bytes(20000, 7), 8);
    seeded.encode_bytes("b", asset_bytes(20000, 11), 8);

    AssetStore store;
    obs::MetricsRegistry reg;
    store.bind_metrics(&reg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    // Readers exercise every disk_-adjacent path: demand-load, the backing
    // accessor, currency checks, and registry snapshots (which poll the
    // disk_* callbacks attach_backing rebinds).
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&store, &reg, &stop, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                auto a = store.resolve(t % 2 == 0 ? "a" : "b");
                if (a != nullptr) (void)store.is_resident(*a);
                (void)store.backing();
                (void)store.residency();
                (void)reg.snapshot();
            }
        });
    }
    // Re-attach the same corpus repeatedly: each attach swaps disk_ under
    // mu_ and rebinds the disk_* callbacks under disk_mu_.
    for (int i = 0; i < 50; ++i) {
        store.attach_backing(std::make_shared<DiskStore>(dir.path));
        store.unload("a");
        store.unload("b");
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();

    ASSERT_NE(store.resolve("a"), nullptr);
    ASSERT_NE(store.resolve("b"), nullptr);
    const auto snap = reg.snapshot().to_json();
    EXPECT_NE(snap.find("disk_assets"), std::string::npos);
}

TEST(ThreadSafety, StreamedFollowersShareTheLeadersFlight) {
    constexpr unsigned kFollowers = 6;
    std::atomic<int> combines{0};
    ContentServer* srv = nullptr;
    ServerOptions opt;
    opt.max_frame_bytes = 2048;
    // The leader holds inside its combine until every follower is parked
    // on its flight.
    opt.combine_hook = [&](const std::string&) {
        ++combines;
        while (srv->coalescing_waiters() < kFollowers)
            std::this_thread::yield();
    };
    ContentServer server(opt);
    srv = &server;
    server.store().encode_bytes("asset", asset_bytes(60000, 13), 16);
    const ServeResult ref = [&] {
        ContentServer plain;
        plain.store().encode_bytes("asset", asset_bytes(60000, 13), 16);
        return plain.serve({"asset", 4, std::nullopt});
    }();
    ASSERT_TRUE(ref.ok());

    const auto pull = [&server, &opt] {
        ServeStream s = server.serve_stream(
            {"asset", 4, std::nullopt, kAcceptStream});
        StreamReassembler ra(opt.max_frame_bytes);
        while (auto frame = s.next_frame()) ra.feed(*frame);
        return ra.result();
    };
    ServeResult leader_res;
    std::thread leader([&] { leader_res = pull(); });
    while (combines.load() == 0) std::this_thread::yield();
    std::vector<std::thread> pullers;
    std::vector<ServeResult> got(kFollowers);
    for (unsigned i = 0; i < kFollowers; ++i)
        pullers.emplace_back([&pull, &got, i] { got[i] = pull(); });
    leader.join();
    for (auto& p : pullers) p.join();

    EXPECT_EQ(combines.load(), 1);  // one combine; everyone else waited
    ASSERT_TRUE(leader_res.ok()) << leader_res.detail;
    EXPECT_EQ(*leader_res.wire, *ref.wire);
    for (unsigned i = 0; i < kFollowers; ++i) {
        ASSERT_TRUE(got[i].ok()) << "follower " << i << ": " << got[i].detail;
        EXPECT_TRUE(got[i].stats.coalesced) << "follower " << i;
        EXPECT_EQ(*got[i].wire, *ref.wire) << "follower " << i;
    }
}

TEST(ThreadSafety, ThreadsFoldOnePayloadThroughItsMemoAtOnce) {
    constexpr unsigned kThreads = 4;
    constexpr unsigned kStates = 64;
    const format::ByteBuffer payload(asset_bytes((64 << 10) + 3, 13));
    std::vector<u64> states(kStates);
    std::vector<u64> want(kStates);
    for (unsigned i = 0; i < kStates; ++i) {
        // Four high-bit variants of each of 16 low bytes.
        states[i] = (0x9e3779b97f4a7c15ull * (i + 1) & ~u64{0xff}) | (i % 16);
        want[i] = format::fnv1a_serial(payload, states[i]);
    }
    std::atomic<unsigned> ready{0};
    std::vector<std::vector<u64>> got(kThreads, std::vector<u64>(kStates));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            for (unsigned i = 0; i < kStates; ++i)
                got[t][i] = payload.memo()->fold(payload, states[i]);
        });
    for (auto& th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], want) << "thread " << t;
}

}  // namespace
}  // namespace recoil::serve
