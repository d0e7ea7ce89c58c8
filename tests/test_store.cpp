// Tests for the persistent asset store: durable put/load round-trips across
// all three asset kinds, kill-and-reopen (drop every byte of process state,
// reopen the directory, serve bit-exact), zero-copy mmap views, generation
// continuity across restarts (cache keys stay valid), write-through and
// demand-load through ContentServer, and corruption surfacing as typed
// StoreError — truncation, bit flips, mangled manifests — never UB.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "serve/server.hpp"
#include "serve/store.hpp"
#include "stream/chunked.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory per test, removed on teardown.
struct StoreFixture : ::testing::Test {
    fs::path dir;

    void SetUp() override {
        dir = fs::temp_directory_path() /
              ("recoil_store_" +
               std::string(
                   ::testing::UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir);
    }
    void TearDown() override { fs::remove_all(dir); }

    static std::vector<u8> payload(u64 n, u64 seed) {
        return test::geometric_symbols<u8>(n, 0.6, 256, seed);
    }
};

TEST_F(StoreFixture, PutListLoadRemoveRoundTrip) {
    auto disk = std::make_shared<DiskStore>(dir);
    EXPECT_EQ(disk->size(), 0u);
    EXPECT_EQ(disk->next_generation(), 1u);
    EXPECT_FALSE(disk->load("a").has_value());

    const std::vector<u8> container = {1, 2, 3, 4, 5, 6, 7, 8};
    disk->put("a", AssetKind::static_file, container, 7);
    ASSERT_TRUE(disk->info("a").has_value());
    EXPECT_EQ(disk->info("a")->generation, 7u);
    EXPECT_EQ(disk->info("a")->container_bytes, container.size());
    EXPECT_EQ(disk->next_generation(), 8u);

    auto loaded = disk->load("a");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(std::equal(container.begin(), container.end(),
                           loaded->map->bytes().begin(),
                           loaded->map->bytes().end()));

    // Replacing bumps nothing implicitly — generation is the caller's.
    const std::vector<u8> replacement = {9, 9};
    disk->put("a", AssetKind::static_file, replacement, 9);
    EXPECT_EQ(disk->info("a")->container_bytes, 2u);
    // The earlier mapping stays valid after the replace (rename semantics).
    EXPECT_EQ(loaded->map->bytes().size(), container.size());

    EXPECT_TRUE(disk->remove("a"));
    EXPECT_FALSE(disk->remove("a"));
    EXPECT_EQ(disk->size(), 0u);
}

TEST_F(StoreFixture, HostileAssetNamesBecomeFilesOrTypedErrors) {
    auto disk = std::make_shared<DiskStore>(dir);
    const std::vector<u8> c = {1, 2, 3};
    // Path-traversal and separator characters must be neutralized.
    for (const char* name : {"../escape", "a/b/c", "sp ace", "dots..", ".hidden"}) {
        disk->put(name, AssetKind::static_file, c, disk->next_generation());
        EXPECT_TRUE(disk->load(name).has_value()) << name;
    }
    // Every file the store created lives directly in the store directory.
    for (const auto& entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().parent_path(), dir);
    EXPECT_THROW(disk->put("", AssetKind::static_file, c, 99), StoreError);
    EXPECT_THROW(disk->put(std::string(300, '/'), AssetKind::static_file, c, 99),
                 StoreError);
    try {
        disk->put("", AssetKind::static_file, c, 99);
        FAIL();
    } catch (const StoreError& e) {
        EXPECT_EQ(e.status(), StoreStatus::bad_name);
        EXPECT_STREQ(store_status_name(e.status()), "bad_name");
    }
}

TEST_F(StoreFixture, KillAndReopenServesEveryAssetBitExact) {
    // Write N assets of all three kinds through the serving stack, drop the
    // whole process state, reopen the directory, and verify every response
    // is bit-identical to the pre-restart one.
    constexpr int kAssets = 3;  // per kind
    std::vector<std::pair<std::string, std::vector<u8>>> responses;

    {
        ContentServer server;
        server.store().attach_backing(std::make_shared<DiskStore>(dir));
        for (int i = 0; i < kAssets; ++i) {
            const std::string name = "file" + std::to_string(i);
            server.store().encode_bytes(name, payload(40000 + 1000 * i, i), 32);

            stream::ChunkedEncoder enc({11, 8});
            const auto clip = payload(30000, 100 + i);
            for (u64 off = 0; off < clip.size(); off += 10000)
                enc.add_chunk(std::span<const u8>(clip).subspan(off, 10000));
            server.store().add_chunked("clip" + std::to_string(i), enc.finish());
        }
        // An indexed-model asset exercises the id-stream view path.
        {
            const auto syms = payload(20000, 55);
            std::vector<u8> ids(syms.size());
            for (std::size_t i = 0; i < ids.size(); ++i)
                ids[i] = static_cast<u8>((i / 7) % 2);
            std::vector<u64> c0(256, 1), c1(256, 1);
            for (std::size_t i = 0; i < syms.size(); ++i)
                (ids[i] == 0 ? c0 : c1)[syms[i]]++;
            std::vector<StaticModel> models{StaticModel(c0, 11),
                                            StaticModel(c1, 11)};
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
            auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), set, 16);
            f.metadata = std::move(enc.metadata);
            f.units = std::move(enc.bitstream.units);
            f.model = std::move(p);
            server.store().add_file("latents", std::move(f));
        }

        for (const auto& resident : server.store().residency()) {
            const std::string& name = resident.name;
            auto res = server.serve(ServeRequest{name, 4, std::nullopt});
            ASSERT_TRUE(res.ok()) << name << ": " << res.detail;
            responses.emplace_back(
                name, std::vector<u8>(res.wire->begin(), res.wire->end()));
            auto range = server.serve(ServeRequest{name, 1, {{10, 5000}}});
            ASSERT_TRUE(range.ok()) << name << ": " << range.detail;
            responses.emplace_back(
                name + "/range",
                std::vector<u8>(range.wire->begin(), range.wire->end()));
        }
    }  // server destroyed: nothing survives but the directory

    ContentServer server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    EXPECT_EQ(server.store().size(), 0u);  // nothing resident until requested
    for (const auto& [key, wire] : responses) {
        const bool is_range = key.ends_with("/range");
        const std::string name =
            is_range ? key.substr(0, key.size() - 6) : key;
        auto res = is_range
                       ? server.serve(ServeRequest{name, 1, {{10, 5000}}})
                       : server.serve(ServeRequest{name, 4, std::nullopt});
        ASSERT_TRUE(res.ok()) << key << ": " << res.detail;
        EXPECT_EQ(*res.wire, wire) << key << " not bit-exact after reopen";
    }
}

TEST_F(StoreFixture, DemandLoadIsZeroCopyAndDecodesBitExact) {
    const auto data = payload(80000, 3);
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("a", data, 32);
    }
    AssetStore store;
    store.attach_backing(std::make_shared<DiskStore>(dir));
    EXPECT_EQ(store.find("a"), nullptr);  // not resident
    auto a = store.resolve("a");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(a->file(), nullptr);
    // v2 containers align the unit payload, so the mmapped bitstream (and
    // the serving path on top of it) is a borrowed view, not a copy.
    EXPECT_TRUE(a->file()->units.borrowed());

    auto dec = format::decode_file(*a->file());
    EXPECT_EQ(dec, data);
}

TEST_F(StoreFixture, GenerationCarriesAcrossRestartSoCacheKeysStayValid) {
    u64 gen1 = 0, gen2 = 0;
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        gen1 = store.encode_bytes("a", payload(30000, 1), 8)->uid();
        gen2 = store.encode_bytes("a", payload(30000, 2), 8)->uid();  // replace
        EXPECT_GT(gen2, gen1);
    }
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        auto a = store.resolve("a");
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(a->uid(), gen2);  // the persisted generation IS the uid
        // Fresh inserts continue strictly above every persisted generation.
        EXPECT_GT(store.encode_bytes("b", payload(1000, 9), 4)->uid(), gen2);
    }
}

TEST_F(StoreFixture, AssetsSharingAUidEachServeTheirOwnBytes) {
    // Uids repeat across names: "x", added memory-only before the attach,
    // takes uid 1, and "y", "a" and "b" were planted into one directory at
    // generation 1 (as partitions merged by an operator would be). Responses
    // are keyed by the asset instance, so each asset answers with its own
    // bytes, cold and warm.
    const std::pair<const char*, u64> assets[] = {
        {"x", 11}, {"y", 12}, {"a", 13}, {"b", 14}};
    ContentServer ref;
    for (const auto& [name, seed] : assets)
        ref.store().encode_bytes(name, payload(30000, seed), 8);
    {
        DiskStore planted(dir);
        for (const char* name : {"y", "a", "b"})
            planted.put(name, AssetKind::static_file,
                        format::save_recoil_file(*ref.store().find(name)->file()),
                        1);
    }
    ContentServer server;
    server.store().encode_bytes("x", payload(30000, 11), 8);
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    for (const bool warm : {false, true})
        for (const auto& [name, seed] : assets) {
            const ServeResult got = server.serve({name, 4, std::nullopt});
            ASSERT_TRUE(got.ok()) << got.detail;
            EXPECT_EQ(got.stats.cache_hit, warm) << name;
            EXPECT_EQ(*got.wire, *ref.serve({name, 4, std::nullopt}).wire)
                << name;
        }
    for (const auto& [name, seed] : assets)
        EXPECT_EQ(server.store().find(name)->uid(), 1u) << name;
}

TEST_F(StoreFixture, UnloadDropsCachedResponsesAndReloadsBitExact) {
    ContentServer server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    server.store().encode_bytes("a", payload(50000, 4), 16);

    const ServeRequest req{"a", 8, std::nullopt};
    auto cold = server.serve(req);
    ASSERT_TRUE(cold.ok());
    ASSERT_FALSE(cold.stats.cache_hit);

    ASSERT_TRUE(server.store().unload("a"));
    EXPECT_EQ(server.store().find("a"), nullptr);
    // The entry viewed the unloaded asset's payload, so it left with it.
    // Demand-load reconstructs the asset under the same generation and the
    // recombined response is the same bytes.
    EXPECT_EQ(server.cache().stats().entries, 0u);
    auto reloaded = server.serve(req);
    ASSERT_TRUE(reloaded.ok()) << reloaded.detail;
    EXPECT_FALSE(reloaded.stats.cache_hit);
    EXPECT_EQ(*reloaded.wire, *cold.wire);
    EXPECT_EQ(server.store().find("a")->uid(),
              server.store().backing()->info("a")->generation);
    // erase is the real delete: memory, cache, and disk.
    EXPECT_TRUE(server.store().erase("a"));
    EXPECT_EQ(server.serve(req).code, ErrorCode::unknown_asset);
    EXPECT_EQ(server.store().backing()->size(), 0u);
}

TEST_F(StoreFixture, TruncatedContainerIsATypedError) {
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("a", payload(30000, 5), 8);
    }
    fs::path container;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".rca") container = entry.path();
    ASSERT_FALSE(container.empty());
    fs::resize_file(container, fs::file_size(container) / 2);

    // Caught at open: the manifest's recorded size no longer matches.
    try {
        DiskStore reopened(dir);
        FAIL() << "truncated container must not open cleanly";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.status(), StoreStatus::bad_container);
    }
}

TEST_F(StoreFixture, BitFlippedContainerIsATypedError) {
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("a", payload(30000, 6), 8);
    }
    fs::path container;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".rca") container = entry.path();
    test::flip_bit(container);

    // Size is unchanged, so the store opens; the flip surfaces as a typed
    // checksum failure at load (the manifest's FNV no longer matches).
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        try {
            (void)store.resolve("a");
            FAIL() << "corrupt container resolved";
        } catch (const StoreError& e) {
            EXPECT_EQ(e.status(), StoreStatus::bad_container);
        }
    }

    // Through the serving stack the same corruption is a typed response.
    ContentServer server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    auto res = server.serve(ServeRequest{"a", 4, std::nullopt});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.code, ErrorCode::internal);
    EXPECT_NE(res.detail.find("checksum"), std::string::npos) << res.detail;
}

TEST_F(StoreFixture, AnAlphabetWiderThanTheSymbolsIsATypedError) {
    // A sealed one-byte container over a 300-symbol pdf (see
    // Container.AnAlphabetWiderThanTheSymbolsIsATypedError): its checksum
    // matches, and its load fails as a bad container instead of serving
    // symbols cut to their low byte.
    const auto syms = test::geometric_symbols<u16>(5000, 0.99, 300, 71);
    const StaticModel m = test::model_for<u16>(syms, 12, 300);
    format::RecoilFile f = format::make_recoil_file(
        recoil_encode<Rans32, 32>(std::span<const u16>(syms), m, 4), m, 2);
    f.sym_width = 1;
    DiskStore(dir).put("wide", AssetKind::static_file, format::save_recoil_file(f), 1);

    AssetStore store;
    store.attach_backing(std::make_shared<DiskStore>(dir));
    try {
        (void)store.resolve("wide");
        FAIL() << "a container whose alphabet exceeds its width resolved";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.status(), StoreStatus::bad_container);
    }
}

TEST_F(StoreFixture, MangledManifestIsATypedError) {
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("a", payload(20000, 7), 8);
    }
    fs::path manifest;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".rcm") manifest = entry.path();
    test::flip_bit(manifest);
    try {
        DiskStore reopened(dir);
        FAIL() << "mangled manifest must not open cleanly";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.status(), StoreStatus::bad_manifest);
    }
}

TEST_F(StoreFixture, LeftoverTempFilesAreIgnoredOnOpen) {
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("a", payload(20000, 8), 8);
    }
    // A crash mid-put leaves *.tmp droppings, and a crash between the
    // container and manifest renames leaves an unreferenced container;
    // neither must confuse reopen.
    std::ofstream(dir / "b.g1.rca.tmp") << "torn container write";
    std::ofstream(dir / "b.rcm.tmp") << "torn manifest write";
    std::ofstream(dir / "c.g9.rca") << "orphan container, no manifest";
    DiskStore reopened(dir);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(reopened.info("a").has_value());
}

TEST_F(StoreFixture, ReplaceCrashBeforeManifestCommitKeepsTheOldAsset) {
    // Replacement commits via the manifest rename. Simulate a crash after
    // the new generation's container landed but before the commit: the old
    // asset must still open and load bit-exact — the store is never left
    // describing bytes it does not have.
    const std::vector<u8> old_container = {10, 20, 30, 40, 50};
    {
        DiskStore disk(dir);
        disk.put("a", AssetKind::static_file, old_container, 1);
    }
    std::ofstream(dir / "a.g2.rca", std::ios::binary)
        << "half-committed replacement";
    DiskStore reopened(dir);
    ASSERT_TRUE(reopened.info("a").has_value());
    EXPECT_EQ(reopened.info("a")->generation, 1u);
    auto loaded = reopened.load("a");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(std::equal(old_container.begin(), old_container.end(),
                           loaded->map->bytes().begin(),
                           loaded->map->bytes().end()));
}

TEST_F(StoreFixture, SeededManyAssetReopenLoop) {
    // Seeded kill-and-reopen sweep: N assets, two reopen cycles, every
    // asset must round-trip bit-exact each time.
    constexpr int kAssets = 8;
    std::vector<std::vector<u8>> originals;
    Xoshiro256 rng(2026);
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        for (int i = 0; i < kAssets; ++i) {
            originals.push_back(payload(5000 + rng.below(20000), 500 + i));
            store.encode_bytes("asset" + std::to_string(i), originals.back(),
                               1 + static_cast<u32>(rng.below(32)));
        }
    }
    for (int cycle = 0; cycle < 2; ++cycle) {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        EXPECT_EQ(store.backing()->size(), static_cast<std::size_t>(kAssets));
        for (int i = 0; i < kAssets; ++i) {
            auto a = store.resolve("asset" + std::to_string(i));
            ASSERT_NE(a, nullptr) << i;
            ASSERT_NE(a->file(), nullptr) << i;
            auto dec = format::decode_file(*a->file());
            EXPECT_EQ(dec, originals[static_cast<std::size_t>(i)])
                << "asset " << i << " cycle " << cycle;
        }
    }
}

}  // namespace
}  // namespace recoil::serve
