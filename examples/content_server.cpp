// Content-delivery scenario (§1, §3.3) on the serve subsystem, speaking the
// versioned wire protocol across a simulated process boundary: clients build
// framed requests (encode_request), the server answers opaque frames
// (ContentServer::serve_frame), and clients parse typed responses
// (decode_response) — exactly what an HTTP/gRPC frontend would forward. The
// server encodes a 10 MB asset once with 2176-way split metadata, adapts
// metadata per client class through the LRU wire cache, coalesces a
// concurrent cold stampede into one combine, and serves byte ranges over
// both single-file and chunked assets.
//
// With `--store DIR` the server runs on a persistent DiskStore: the first
// run encodes and writes through durably; every later run cold-boots by
// mmapping the stored masters (no re-encode) and serves the same bytes —
// including through the v2 streamed framing (write → restart → stream).
// `--verify-store` re-walks every manifest and container checksum at boot,
// reporting corrupt assets as typed errors instead of failing on the first
// demand-load.
//
// `--cache-policy lru|slru|lru-tinylfu|slru-tinylfu` selects the response
// cache's eviction/admission policies; `--mem-budget BYTES` (K/M/G suffixes)
// arms the resource governor with a global budget over cache bytes +
// resident store bytes — under pressure it unloads cold demand-loadable
// assets (pinned ones are protected) and shrinks the cache if that is not
// enough. With both --store and --mem-budget set, a cold-asset tail is
// served to demonstrate pressure unloads live.
//
// `--metrics-json PATH` dumps the unified telemetry snapshot (every serve /
// cache / governor / store / session counter plus the per-phase latency
// histograms) as JSON at exit; the same snapshot is also fetched over the
// wire via the reserved "!metrics" introspection asset to prove the
// exposition surface works end to end. `--trace-log PATH` dumps the slow
// request log (N slowest + recent failures, with per-phase spans) as JSON.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>

#include "core/recoil_decoder.hpp"
#include "serve/session.hpp"
#include "serve/store.hpp"
#include "simd/dispatch.hpp"
#include "util/stopwatch.hpp"
#include "workload/datasets.hpp"

using namespace recoil;
using namespace recoil::serve;

namespace {

/// Client side of the protocol: frame the request, hand the opaque frame to
/// the server (a network hop in a real deployment), parse the typed response.
ServeResult roundtrip(ContentServer& server, const ServeRequest& req) {
    const std::vector<u8> request_frame = encode_request(req);
    const std::vector<u8> response_frame = server.serve_frame(request_frame);
    return decode_response(response_frame);
}

/// Write `body` to `path` whole; returns false (with a stderr note) on any
/// IO failure so telemetry dumps never turn a healthy run into a crash.
bool dump_file(const char* path, const std::string& body) {
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return false;
    }
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "short write to %s\n", path);
    return ok;
}

/// "64M" -> bytes; bare numbers are bytes. 0 on parse failure (including
/// trailing garbage after the K/M/G suffix, e.g. "64MB").
u64 parse_bytes(const char* s) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || v < 0) return 0;
    u64 mult = 1;
    if (*end == 'K' || *end == 'k') mult = u64{1} << 10, ++end;
    else if (*end == 'M' || *end == 'm') mult = u64{1} << 20, ++end;
    else if (*end == 'G' || *end == 'g') mult = u64{1} << 30, ++end;
    if (*end != '\0') return 0;
    return static_cast<u64>(v * static_cast<double>(mult));
}

}  // namespace

int main(int argc, char** argv) {
    const char* store_dir = nullptr;
    bool verify_store = false;
    CachePolicyConfig cache_policy;
    u64 mem_budget = 0;
    const char* metrics_json = nullptr;
    const char* trace_log = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--store requires a directory\n");
                return 2;
            }
            store_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--verify-store") == 0) {
            verify_store = true;
        } else if (std::strcmp(argv[i], "--cache-policy") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--cache-policy requires a name "
                                     "(lru|slru|lru-tinylfu|slru-tinylfu)\n");
                return 2;
            }
            auto parsed = parse_cache_policy(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown cache policy '%s'\n", argv[i]);
                return 2;
            }
            cache_policy = *parsed;
        } else if (std::strcmp(argv[i], "--mem-budget") == 0) {
            if (i + 1 >= argc ||
                (mem_budget = parse_bytes(argv[i + 1])) == 0) {
                std::fprintf(stderr,
                             "--mem-budget requires a size (e.g. 64M)\n");
                return 2;
            }
            ++i;
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--metrics-json requires a path\n");
                return 2;
            }
            metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-log") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--trace-log requires a path\n");
                return 2;
            }
            trace_log = argv[++i];
        }
    }

    const u64 size = 10'000'000;
    auto data = workload::gen_text(size, 2024);

    ServerOptions server_opt;
    server_opt.cache_policy = cache_policy;
    server_opt.mem_budget_bytes = mem_budget;
    ContentServer server(server_opt);
    std::printf("cache policy: %s%s\n", server.cache().policy_name().c_str(),
                mem_budget != 0 ? ", memory governor armed" : "");
    if (store_dir != nullptr) {
        Stopwatch open_sw;
        auto disk = std::make_shared<DiskStore>(store_dir);
        server.store().attach_backing(disk);
        std::printf("store: opened %s (%zu stored assets) in %.2f ms\n",
                    store_dir, disk->size(), open_sw.seconds() * 1e3);
        if (verify_store) {
            // Boot-time scrub: re-walk manifests and container checksums so a
            // corrupt asset surfaces now, as a typed error, instead of on its
            // first demand-load.
            Stopwatch verify_sw;
            const auto report = disk->verify();
            std::printf("store: verified %zu asset(s) in %.2f ms — %s\n",
                        report.checked, verify_sw.seconds() * 1e3,
                        report.ok() ? "all containers healthy"
                                    : "CORRUPTION FOUND");
            for (const auto& issue : report.issues)
                std::fprintf(stderr, "store: asset '%s' [%s]: %s\n",
                             issue.name.c_str(),
                             store_status_name(issue.status),
                             issue.detail.c_str());
            if (!report.ok()) return 1;
        }
    } else if (verify_store) {
        std::fprintf(stderr, "--verify-store requires --store DIR\n");
        return 2;
    }

    // Cold boot: an asset already persisted from a previous run is mmapped
    // and served as-is — the whole point of encode-once is never doing this
    // encode again.
    auto asset = server.store().resolve("asset");
    if (asset != nullptr) {
        std::printf("server: booted 'asset' from store (master %llu B, "
                    "%u split points) — no re-encode\n\n",
                    static_cast<unsigned long long>(asset->master_bytes()),
                    asset->max_parallelism() - 1);
    } else {
        std::printf("server: encoding %llu-byte asset once (max parallelism "
                    "2176)...\n",
                    static_cast<unsigned long long>(size));
        asset = server.store().encode_bytes("asset", data, 2176);
        std::printf("server: master %llu B (%u split points)%s\n\n",
                    static_cast<unsigned long long>(asset->master_bytes()),
                    asset->max_parallelism() - 1,
                    store_dir != nullptr ? ", persisted durably" : "");
    }

    struct Client {
        const char* name;
        u32 parallelism;
        u32 threads;
    };
    const Client clients[] = {
        {"phone (2 cores)", 2, 2},
        {"laptop (8 cores)", 8, 8},
        {"workstation (16 cores)", 16, 16},
        {"GPU box (2176 warps)", 2176, 0},
    };

    // First wave: every class is a cache miss (combine + serialize). Second
    // wave: the same classes come back and are served from the cache. Both
    // cross the protocol boundary as framed messages.
    for (int wave = 0; wave < 2; ++wave) {
        std::printf("wave %d (%s):\n", wave + 1, wave == 0 ? "cold" : "warm");
        for (const Client& c : clients) {
            auto res = roundtrip(server, ServeRequest{"asset", c.parallelism, {}});
            if (!res.ok()) {
                std::fprintf(stderr, "serve failed [%s]: %s\n",
                             error_name(res.code), res.detail.c_str());
                return 1;
            }

            // Client side: parse, rebuild model, decode with its own capacity.
            auto got = format::load_recoil_file(*res.wire);
            auto m = got.build_static_model();
            ThreadPool pool(c.threads == 0 ? std::thread::hardware_concurrency()
                                           : c.threads);
            simd::SimdRangeFn<u8> range;
            Stopwatch dec_sw;
            auto out = recoil_decode<Rans32, 32, u8>(std::span<const u16>(got.units),
                                                     got.metadata, m.tables(), &pool,
                                                     nullptr, range);
            const double dec_s = dec_sw.seconds();
            std::printf(
                "  %-24s wire %8llu B (saved %6llu B) | %s | "
                "decoded %.2f GB/s [%s]\n",
                c.name, static_cast<unsigned long long>(res.stats.wire_bytes),
                static_cast<unsigned long long>(asset->master_bytes() -
                                                res.stats.wire_bytes),
                res.stats.cache_hit ? "cache hit " : "combined  ",
                gbps(static_cast<double>(out.size()), dec_s),
                out == data ? "OK" : "MISMATCH");
            if (out != data) return 1;
        }
        std::printf("\n");
    }

    // Cold stampede: 24 identical cold requests through the async Session;
    // single-flight coalescing shares one combine's wire, the rest of the
    // burst hits the cache the leader populated.
    server.cache().clear();
    {
        const auto before = server.totals();
        Session session(server, {8});
        std::vector<std::shared_future<ServeResult>> futs;
        for (int i = 0; i < 24; ++i)
            futs.push_back(session.submit(ServeRequest{"asset", 16, {}}));
        session.wait_idle();
        for (auto& f : futs)
            if (!f.get().ok()) return 1;
        const auto t = server.totals();
        std::printf("cold stampede: 24 identical requests -> %llu coalesced + "
                    "%llu cache hits, %.1f MB recombination avoided\n\n",
                    static_cast<unsigned long long>(t.coalesced_requests -
                                                    before.coalesced_requests),
                    static_cast<unsigned long long>(t.cache_hits -
                                                    before.cache_hits),
                    static_cast<double>(t.bytes_saved - before.bytes_saved) / 1e6);
    }

    // Streamed serving (v2 framing): the same producer emits the wire as
    // pieces — owned structural sections, borrowed payload views — framed as
    // header, checksummed body frames and a FIN with a whole-wire FNV, so
    // the uncached server never gathers the response and owns only its
    // metadata. With --store this streams straight out of the mmapped
    // master persisted by a previous run (write -> restart -> stream).
    {
        StreamOptions sopt;
        sopt.max_frame_bytes = 256 * 1024;
        sopt.use_cache = false;  // the very-large-response regime
        auto stream = server.serve_stream(
            ServeRequest{"asset", 16, {}, kAcceptAll | kAcceptStreamed}, sopt);
        StreamReassembler client(sopt.max_frame_bytes);
        Stopwatch stream_sw;
        while (auto frame = stream.next_frame()) client.feed(*frame);
        const double stream_s = stream_sw.seconds();
        auto streamed = client.result();
        if (!streamed.ok()) {
            std::fprintf(stderr, "streamed serve failed [%s]: %s\n",
                         error_name(streamed.code), streamed.detail.c_str());
            return 1;
        }
        auto reference = roundtrip(server, ServeRequest{"asset", 16, {}});
        const bool exact = reference.ok() && *streamed.wire == *reference.wire;
        std::printf(
            "streamed serve: %llu frames, wire %llu B in %.2f ms; producer "
            "peak %llu B owned (%.3f%% of wire) [%s]\n\n",
            static_cast<unsigned long long>(stream.frames_emitted()),
            static_cast<unsigned long long>(streamed.stats.wire_bytes),
            stream_s * 1e3,
            static_cast<unsigned long long>(stream.peak_owned_bytes()),
            100.0 * static_cast<double>(stream.peak_owned_bytes()) /
                static_cast<double>(streamed.stats.wire_bytes),
            exact ? "bit-exact with v1" : "MISMATCH");
        if (!exact) return 1;
    }

    // Byte-range request: a client needs symbols [6 MB, 6 MB + 16 KB) only.
    const u64 lo = 6'000'000, hi = lo + 16'384;
    auto range_res = roundtrip(server, ServeRequest{"asset", 4, {{lo, hi}}});
    if (!range_res.ok()) {
        std::fprintf(stderr, "range serve failed [%s]: %s\n",
                     error_name(range_res.code), range_res.detail.c_str());
        return 1;
    }
    auto part = decode_range_wire(*range_res.wire);
    bool match = std::equal(part.begin(), part.end(), data.begin() + lo);
    std::printf("range [%llu, %llu): wire %llu B (%u covering splits, "
                "%.4f%% of master) [%s]\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(range_res.stats.wire_bytes),
                range_res.stats.splits_served,
                100.0 * static_cast<double>(range_res.stats.wire_bytes) /
                    static_cast<double>(asset->master_bytes()),
                match ? "OK" : "MISMATCH");
    if (!match) return 1;

    // Chunked asset (a 40-frame clip): ranges decompose into per-chunk
    // covering splits, so a slice spanning frame boundaries still works.
    const u64 frame_bytes = 50'000;
    auto clip = workload::gen_text(40 * frame_bytes, 77);
    if (server.store().resolve("clip") == nullptr) {
        stream::ChunkedEncoder enc({11, 32});
        for (u64 off = 0; off < clip.size(); off += frame_bytes)
            enc.add_chunk(std::span<const u8>(clip).subspan(off, frame_bytes));
        server.store().add_chunked("clip", enc.finish());
    }

    const u64 clip_lo = 7 * frame_bytes - 1000, clip_hi = 9 * frame_bytes + 1000;
    auto clip_res = roundtrip(server, ServeRequest{"clip", 1, {{clip_lo, clip_hi}}});
    if (!clip_res.ok()) {
        std::fprintf(stderr, "chunked range failed [%s]: %s\n",
                     error_name(clip_res.code), clip_res.detail.c_str());
        return 1;
    }
    auto clip_part = decode_range_wire(*clip_res.wire);
    auto clip_info = inspect_range_wire(*clip_res.wire);
    match = std::equal(clip_part.begin(), clip_part.end(), clip.begin() + clip_lo);
    std::printf("chunked range [%llu, %llu): %zu segments, wire %llu B [%s]\n",
                static_cast<unsigned long long>(clip_lo),
                static_cast<unsigned long long>(clip_hi),
                clip_info.segments.size(),
                static_cast<unsigned long long>(clip_res.stats.wire_bytes),
                match ? "OK" : "MISMATCH");
    if (!match) return 1;

    // Typed errors cross the boundary too: the client sees a code, never a
    // crash or a stringly-typed guess.
    auto bad = roundtrip(server, ServeRequest{"asset", 1, {{size, size + 5}}});
    std::printf("invalid range -> typed error [%s]: %s\n\n",
                error_name(bad.code), bad.detail.c_str());
    if (bad.code != ErrorCode::invalid_range) return 1;

    // Resource governance under a global byte budget: pin the hot asset,
    // then serve a tail of cold assets. Each tail serve grows resident
    // bytes (write-through + demand-loadable); once cache + store exceed
    // the budget the governor unloads the coldest unpinned assets — the
    // pinned hot asset must ride out the pressure in memory.
    if (mem_budget != 0 && store_dir != nullptr) {
        server.governor().pin("asset");
        const int kTail = 6;
        for (int i = 0; i < kTail; ++i) {
            const std::string name = "tail/" + std::to_string(i);
            if (server.store().resolve(name) == nullptr) {
                auto cold = workload::gen_text(1'000'000, 100 + i);
                server.store().encode_bytes(name, cold, 32);
            }
            if (!roundtrip(server, ServeRequest{name, 4, {}}).ok()) return 1;
        }
        const auto g = server.governor().stats();
        std::printf(
            "governor: budget %llu B, resident %llu B + cache %llu B; "
            "%llu pressure passes, %llu unloads (%llu B), %llu cache "
            "shrinks, skipped %llu pinned / %llu in-use\n",
            static_cast<unsigned long long>(g.budget_bytes),
            static_cast<unsigned long long>(g.resident_bytes),
            static_cast<unsigned long long>(g.cache_bytes),
            static_cast<unsigned long long>(g.enforcements),
            static_cast<unsigned long long>(g.unloads),
            static_cast<unsigned long long>(g.bytes_unloaded),
            static_cast<unsigned long long>(g.cache_shrinks),
            static_cast<unsigned long long>(g.skipped_pinned),
            static_cast<unsigned long long>(g.skipped_in_use));
        if (server.store().find("asset") == nullptr) {
            std::fprintf(stderr, "governor unloaded a pinned asset\n");
            return 1;
        }
        // Unloaded tail assets are pressure relief, not eviction: the next
        // request demand-loads the same generation and bytes.
        auto back = roundtrip(server, ServeRequest{"tail/0", 4, {}});
        if (!back.ok()) {
            std::fprintf(stderr, "reload after governor unload failed: %s\n",
                         back.detail.c_str());
            return 1;
        }
        std::printf("governor: pinned 'asset' stayed resident; unloaded "
                    "tails demand-load back bit-identically\n\n");
    }

    const auto t = server.totals();
    const auto c = server.cache().stats();
    std::printf("server totals: %llu requests (%llu range), %llu cache hits, "
                "%llu coalesced, %.1f MB saved, %llu failures; cache [%s] "
                "holds %llu entries / %llu B (%llu evictions, %llu admission "
                "rejections)\n",
                static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.range_requests),
                static_cast<unsigned long long>(t.cache_hits),
                static_cast<unsigned long long>(t.coalesced_requests),
                static_cast<double>(t.bytes_saved) / 1e6,
                static_cast<unsigned long long>(t.failures),
                server.cache().policy_name().c_str(),
                static_cast<unsigned long long>(c.entries),
                static_cast<unsigned long long>(c.bytes),
                static_cast<unsigned long long>(c.evictions),
                static_cast<unsigned long long>(c.admission_rejected));
    if (store_dir != nullptr)
        std::printf("store: %zu assets persisted in %s — rerun with the same "
                    "--store to serve them without re-encoding\n",
                    server.store().backing()->size(), store_dir);

    if (metrics_json != nullptr) {
        // Fetch the snapshot over the wire — the same framed protocol a
        // remote scraper would speak — instead of reading the registry
        // in-process, so the dump also proves the exposition surface.
        auto m = roundtrip(server, ServeRequest{kMetricsAssetJson, 1, {},
                                               kAcceptAll | kAcceptMetrics});
        if (!m.ok() || m.payload != PayloadKind::metrics) {
            std::fprintf(stderr, "metrics introspection failed [%s]: %s\n",
                         error_name(m.code), m.detail.c_str());
            return 1;
        }
        if (!dump_file(metrics_json,
                       std::string(m.wire->begin(), m.wire->end())))
            return 1;
        std::printf("metrics: %llu B JSON snapshot (fetched via \"%s\" "
                    "introspection) written to %s\n",
                    static_cast<unsigned long long>(m.wire->size()),
                    kMetricsAssetJson, metrics_json);
    }
    if (trace_log != nullptr) {
        if (!dump_file(trace_log, server.slow_log().to_json())) return 1;
        std::printf("traces: slow-request log (%llu request(s) recorded) "
                    "written to %s\n",
                    static_cast<unsigned long long>(server.slow_log().recorded()),
                    trace_log);
    }
    return 0;
}
