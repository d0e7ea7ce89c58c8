// Serve-subsystem benchmark: warm- vs cold-cache serve latency for a
// 2176-split asset (the paper's "Large" parallelism), byte-range wire cost,
// single-flight coalescing under a concurrent cold stampede, aggregate
// request throughput for a mixed fleet of client classes served from plain
// client threads, and cold-boot-from-disk time for a persistent store
// (mmap + zero-copy parse vs re-encoding the master).
// Every repeated-measurement section reports p50/p99/p999 (log2-bucket
// histograms from the obs layer), a telemetry-overhead section pins the
// registry's warm-hit cost at <= 2%, a range-decode sweep pins the guarded
// SIMD kernels at >= 1.5x over the scalar path on vector-capable hosts, a
// stream-concurrency section pins 1k live streams at < 2x
// hardware_concurrency added threads (a stream is a cursor over finished
// bytes, not a thread), and the server's full metrics snapshot is embedded
// in the JSON report. `--net` adds a loopback section: the same
// server behind the epoll daemon (src/net), with concurrent client
// connections measuring socket round-trip p50/p99/p999 against the
// in-process baseline, plus v2 streamed bulk throughput over real sockets.
// `--quick` shrinks the workload for CI smoke runs; `--json OUT.json` emits
// the numbers machine-readably so the perf trajectory is tracked across PRs.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "core/recoil_encoder.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "obs/metrics.hpp"
#include "rans/indexed_model.hpp"
#include "rans/static_model.hpp"
#include "serve/range_wire.hpp"
#include "serve/server.hpp"
#include "serve/shard_router.hpp"
#include "serve/store.hpp"
#include "util/xoshiro.hpp"
#include "workload/traffic.hpp"

using namespace recoil;
using namespace recoil::serve;

namespace {

struct ClientClass {
    const char* name;
    u32 parallelism;
    u32 weight;  ///< share of fleet traffic
};

/// Accumulates the machine-readable report for --json. Values are appended
/// as they are measured; the file is written once at the end.
struct JsonReport {
    std::string body;
    bool first = true;

    void field(const char* key, const std::string& value) {
        body += first ? "\n  " : ",\n  ";
        first = false;
        body += '"';
        body += key;
        body += "\": ";
        body += value;
    }
    static std::string num(double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return buf;
    }
    static std::string num(u64 v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(v));
        return buf;
    }
    bool write(const char* path) const {
        std::FILE* f = std::fopen(path, "w");
        if (f == nullptr) return false;
        std::fprintf(f, "{%s\n}\n", body.c_str());
        std::fclose(f);
        return true;
    }
};

constexpr ClientClass kFleet[] = {
    {"phone (2 cores)", 2, 40},
    {"laptop (8 cores)", 8, 30},
    {"workstation (16 cores)", 16, 20},
    {"GPU box (2176 warps)", bench::kLargeSplits, 10},
};

/// Point-in-time copy of a live histogram (the bench-local analogue of what
/// MetricsRegistry::snapshot does for registered ones).
obs::HistogramSnapshot hist_snap(const obs::Histogram& h) {
    obs::HistogramSnapshot s;
    s.count = h.count();
    s.sum_ns = h.sum_ns();
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) s.buckets[i] = h.bucket(i);
    return s;
}

/// Named server histogram as a snapshot; empty when absent (telemetry off).
obs::HistogramSnapshot server_hist(ContentServer& server, const char* name) {
    const auto snap = server.metrics().snapshot();
    const auto* h = snap.find_histogram(name);
    return h != nullptr ? *h : obs::HistogramSnapshot{};
}

/// after - before: isolates one bench section's samples out of a cumulative
/// server histogram, so each section reports its own percentiles.
obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& before,
                                  const obs::HistogramSnapshot& after) {
    obs::HistogramSnapshot d;
    d.name = after.name;
    d.count = after.count - before.count;
    d.sum_ns = after.sum_ns - before.sum_ns;
    for (int i = 0; i < obs::Histogram::kBuckets; ++i)
        d.buckets[i] = after.buckets[i] - before.buckets[i];
    return d;
}

std::string pct_json(const obs::HistogramSnapshot& s) {
    return "{\"count\": " + JsonReport::num(s.count) +
           ", \"mean_us\": " + JsonReport::num(s.mean_seconds() * 1e6) +
           ", \"p50_us\": " + JsonReport::num(s.p50() * 1e6) +
           ", \"p99_us\": " + JsonReport::num(s.p99() * 1e6) +
           ", \"p999_us\": " + JsonReport::num(s.p999() * 1e6) + "}";
}

struct LatencySummary {
    double mean_s = 0;
    obs::HistogramSnapshot hist;
};

/// Live thread count from /proc/self/status ("Threads:"); 0 when the proc
/// filesystem is unavailable (the scaling gate then reports, not enforces).
unsigned process_threads() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    unsigned count = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "Threads: %u", &count) == 1) break;
    std::fclose(f);
    return count;
}

/// Defeats dead-code elimination of the timed decode loops.
volatile u64 g_decode_sink = 0;

LatencySummary measure_serve(ContentServer& server, const ServeRequest& req,
                             int n, bool cold) {
    obs::Histogram h;
    if (!cold) server.serve(req);  // prime
    double total = 0;
    for (int i = 0; i < n; ++i) {
        if (cold) server.cache().clear();
        Stopwatch sw;
        auto res = server.serve(req);
        const double s = sw.seconds();
        total += s;
        h.observe(s);
        if (!res.ok()) {
            std::fprintf(stderr, "serve failed: %s\n", res.detail.c_str());
            std::exit(1);
        }
    }
    return {total / n, hist_snap(h)};
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool with_net = false;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        if (std::strcmp(argv[i], "--net") == 0) with_net = true;
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires an output path\n");
                return 2;
            }
            json_path = argv[++i];
        }
    }
    JsonReport report;
    const double scale = quick ? 0.02 : workload::bench_scale();
    const u64 size = static_cast<u64>(10'000'000 * scale);
    const int n = quick ? 2 : bench::runs();
    std::printf("bench_serve: %llu-byte asset, %u splits, %d runs%s\n\n",
                static_cast<unsigned long long>(size), bench::kLargeSplits, n,
                quick ? " (--quick)" : "");
    report.field("workload",
                 "{\"asset_bytes\": " + JsonReport::num(size) +
                     ", \"splits\": " + JsonReport::num(u64{bench::kLargeSplits}) +
                     ", \"runs\": " + JsonReport::num(u64(n)) +
                     ", \"quick\": " + (quick ? "true" : "false") + "}");

    auto data = workload::gen_text(size, 2024);
    ContentServer server;
    Stopwatch enc_sw;
    auto asset = server.store().encode_bytes("asset", data, bench::kLargeSplits);
    const double encode_s = enc_sw.seconds();
    std::printf("encoded once in %.2f s: master %llu B, %u split points\n\n",
                encode_s,
                static_cast<unsigned long long>(asset->master_bytes()),
                asset->file()->metadata.num_splits() - 1);

    // --- warm vs cold serve latency per client class ---
    std::printf("%-24s %10s %9s %10s %9s %9s %9s %9s %7s\n", "client",
                "wire B", "entry B", "cold ms", "warm us", "p50 us", "p99 us",
                "p999 us", "ratio");
    // A cache entry views the asset's bitstream units; it may be charged
    // only the rest of its wire (header, model, metadata, trailer).
    const u64 unit_bytes = u64{asset->file()->units.size()} * 2;
    double worst_ratio = 1e30;
    std::string classes_json = "[";
    for (const ClientClass& c : kFleet) {
        const ServeRequest req{"asset", c.parallelism, std::nullopt};
        const auto cold = measure_serve(server, req, n, true);
        const auto warm = measure_serve(server, req, n * 10, false);
        const double ratio =
            warm.mean_s > 0 ? cold.mean_s / warm.mean_s : 1e9;
        worst_ratio = std::min(worst_ratio, ratio);
        server.cache().clear();
        auto res = server.serve(req);  // the class's entry, alone in the cache
        const u64 entry_bytes = server.cache().stats().bytes;
        std::printf("%-24s %10llu %9llu %10.3f %9.2f %9.2f %9.2f %9.2f "
                    "%6.0fx\n",
                    c.name,
                    static_cast<unsigned long long>(res.stats.wire_bytes),
                    static_cast<unsigned long long>(entry_bytes),
                    cold.mean_s * 1e3, warm.mean_s * 1e6,
                    warm.hist.p50() * 1e6, warm.hist.p99() * 1e6,
                    warm.hist.p999() * 1e6, ratio);
        if (entry_bytes > res.stats.wire_bytes - unit_bytes) {
            std::fprintf(stderr,
                         "%s: cache entry charged %llu B, over its wire minus "
                         "the asset's %llu unit bytes — a client class must "
                         "cost only its metadata\n",
                         c.name, static_cast<unsigned long long>(entry_bytes),
                         static_cast<unsigned long long>(unit_bytes));
            return 1;
        }
        if (classes_json.size() > 1) classes_json += ", ";
        classes_json += "{\"parallelism\": " + JsonReport::num(u64{c.parallelism}) +
                        ", \"wire_bytes\": " + JsonReport::num(res.stats.wire_bytes) +
                        ", \"entry_bytes\": " + JsonReport::num(entry_bytes) +
                        ", \"cold_ms\": " + JsonReport::num(cold.mean_s * 1e3) +
                        ", \"warm_us\": " + JsonReport::num(warm.mean_s * 1e6) +
                        ", \"warm_latency\": " + pct_json(warm.hist) +
                        ", \"cold_latency\": " + pct_json(cold.hist) +
                        ", \"warm_cold_ratio\": " + JsonReport::num(ratio) + "}";
    }
    classes_json += "]";
    report.field("classes", classes_json);
    report.field("warm_cold_worst_ratio", JsonReport::num(worst_ratio));
    std::printf("\nwarm-cache serving is >= %.0fx faster than cold "
                "(acceptance: >= 10x)\n\n", worst_ratio);

    // --- byte-range serving: wire cost proportional to the slice ---
    const u64 span = std::min<u64>(size / 2, 16384);
    const ServeRequest range_req{"asset", 1, {{size / 2, size / 2 + span}}};
    auto range_res = server.serve(range_req);
    auto full_res = server.serve(ServeRequest{"asset", 2, std::nullopt});
    const auto range_warm = measure_serve(server, range_req, n * 10, false);
    std::printf("range [%llu, +%llu): wire %llu B vs full wire %llu B "
                "(%u covering splits); warm p50/p99/p999 %.2f/%.2f/%.2f us\n\n",
                static_cast<unsigned long long>(size / 2),
                static_cast<unsigned long long>(span),
                static_cast<unsigned long long>(range_res.stats.wire_bytes),
                static_cast<unsigned long long>(full_res.stats.wire_bytes),
                range_res.stats.splits_served,
                range_warm.hist.p50() * 1e6, range_warm.hist.p99() * 1e6,
                range_warm.hist.p999() * 1e6);
    report.field("range",
                 "{\"wire_bytes\": " + JsonReport::num(range_res.stats.wire_bytes) +
                     ", \"full_wire_bytes\": " +
                     JsonReport::num(full_res.stats.wire_bytes) +
                     ", \"warm_latency\": " + pct_json(range_warm.hist) + "}");

    // --- range decode: guarded SIMD kernels vs the pinned scalar path.
    // decode_range_wire takes an explicit backend so both sides of the
    // comparison run the same slice of the same wire; the static asset
    // exercises the unguarded whole-stream kernel, the indexed asset the
    // guarded-tail kernel (vector body + scalar epilogue near the shipped
    // id-slice edges). Rounds interleave the backends so frequency drift
    // cancels; each decode is verified bit-exact against scalar before it
    // is timed. Acceptance on SIMD-capable hosts: best speedup >= 1.5x.
    double simd_best_speedup = 0;
    const simd::Backend best_backend = simd::pick_backend();
    {
        const u64 isize = std::clamp<u64>(size / 4, 50'000, 1'000'000);
        {
            std::vector<u8> ids(isize);
            for (std::size_t i = 0; i < ids.size(); ++i)
                ids[i] = static_cast<u8>(i % 2);
            std::vector<u64> c0(256, 1), c1(256, 1);
            std::span<const u8> syms(data.data(), isize);
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
            auto ienc = recoil_encode<Rans32, 32>(syms, set, 64);
            f.metadata = std::move(ienc.metadata);
            f.units = std::move(ienc.bitstream.units);
            f.model = std::move(p);
            server.store().add_file("indexed_sweep", f);
        }

        std::printf("range decode SIMD sweep (best backend: %s)\n",
                    simd::backend_name(best_backend));
        std::printf("%-10s %10s %10s %12s %12s %9s\n", "asset", "span",
                    "wire B", "scalar MB/s", "simd MB/s", "speedup");
        std::string sweep_json = "[";
        for (const char* aname : {"asset", "indexed_sweep"}) {
            const u64 alen = std::strcmp(aname, "asset") == 0 ? size : isize;
            for (u64 sweep_span : {u64{4096}, u64{65536}, u64{1} << 20}) {
                sweep_span = std::min(sweep_span, alen / 2);
                const u64 lo = alen / 4;
                auto res = server.serve(
                    ServeRequest{aname, 1, {{lo, lo + sweep_span}}});
                if (!res.ok()) {
                    std::fprintf(stderr, "sweep serve failed: %s\n",
                                 res.detail.c_str());
                    return 1;
                }
                const std::span<const u8> wire(*res.wire);
                const auto ref =
                    decode_range_wire(wire, nullptr, simd::Backend::Scalar);
                if (decode_range_wire(wire, nullptr, best_backend) != ref) {
                    std::fprintf(stderr,
                                 "SIMD range decode mismatch (%s, span %llu)\n",
                                 aname,
                                 static_cast<unsigned long long>(sweep_span));
                    return 1;
                }
                const int reps =
                    quick ? 2
                          : static_cast<int>(std::clamp<u64>(
                                2'000'000 / std::max<u64>(1, sweep_span), 3, 50));
                auto time_one = [&](simd::Backend b) {
                    Stopwatch sw;
                    for (int i = 0; i < reps; ++i) {
                        auto out = decode_range_wire(wire, nullptr, b);
                        g_decode_sink = g_decode_sink + out.size() + out[0];
                    }
                    return sw.seconds() / reps;
                };
                double scalar_s = 1e30, simd_s = 1e30;
                for (int round = 0; round < (quick ? 2 : 5); ++round) {
                    scalar_s =
                        std::min(scalar_s, time_one(simd::Backend::Scalar));
                    simd_s = std::min(simd_s, time_one(best_backend));
                }
                const double speedup = simd_s > 0 ? scalar_s / simd_s : 0;
                simd_best_speedup = std::max(simd_best_speedup, speedup);
                const double mbps_scalar =
                    static_cast<double>(sweep_span) / scalar_s / 1e6;
                const double mbps_simd =
                    static_cast<double>(sweep_span) / simd_s / 1e6;
                std::printf("%-10s %10llu %10llu %12.0f %12.0f %8.2fx\n",
                            aname,
                            static_cast<unsigned long long>(sweep_span),
                            static_cast<unsigned long long>(wire.size()),
                            mbps_scalar, mbps_simd, speedup);
                if (sweep_json.size() > 1) sweep_json += ", ";
                sweep_json +=
                    std::string("{\"asset\": \"") + aname + "\"" +
                    ", \"span\": " + JsonReport::num(sweep_span) +
                    ", \"wire_bytes\": " + JsonReport::num(u64{wire.size()}) +
                    ", \"scalar_mbps\": " + JsonReport::num(mbps_scalar) +
                    ", \"simd_mbps\": " + JsonReport::num(mbps_simd) +
                    ", \"speedup\": " + JsonReport::num(speedup) + "}";
            }
        }
        sweep_json += "]";
        report.field("range_simd_sweep",
                     std::string("{\"backend\": \"") +
                         simd::backend_name(best_backend) + "\"" +
                         ", \"best_speedup\": " +
                         JsonReport::num(simd_best_speedup) +
                         ", \"points\": " + sweep_json + "}");
        std::printf("best SIMD-over-scalar range decode speedup: %.2fx "
                    "(acceptance on SIMD hosts: >= 1.5x)\n\n",
                    simd_best_speedup);
    }

    // --- cold stampede: single-flight coalescing across client threads ---
    const unsigned stampede = 32;
    server.cache().clear();
    const auto before = server.totals();
    const auto stampede_h0 = server_hist(server, "serve_request_seconds");
    {
        constexpr unsigned kWorkers = 8;
        std::vector<ServeResult> results(stampede);
        Stopwatch sw;
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < kWorkers; ++t)
            workers.emplace_back([&, t] {
                for (unsigned i = t; i < stampede; i += kWorkers)
                    results[i] =
                        server.serve(ServeRequest{"asset", 16, std::nullopt});
            });
        for (auto& w : workers) w.join();
        const double s = sw.seconds();
        const auto after = server.totals();
        const u64 coalesced = after.coalesced_requests - before.coalesced_requests;
        const u64 cache_hits = after.cache_hits - before.cache_hits;
        std::printf("cold stampede: %u concurrent identical requests in %.2f ms: "
                    "%llu combines, %llu coalesced, %llu cache hits, "
                    "%.1f MB recombination saved\n",
                    stampede, s * 1e3,
                    static_cast<unsigned long long>(stampede - coalesced -
                                                    cache_hits),
                    static_cast<unsigned long long>(coalesced),
                    static_cast<unsigned long long>(cache_hits),
                    static_cast<double>(after.bytes_saved - before.bytes_saved) /
                        1e6);
        const auto lat =
            hist_delta(stampede_h0, server_hist(server, "serve_request_seconds"));
        std::printf("  per-request latency: p50 %.2f us, p99 %.2f us, "
                    "p999 %.2f us (from the server's serve_request_seconds "
                    "histogram)\n\n",
                    lat.p50() * 1e6, lat.p99() * 1e6, lat.p999() * 1e6);
        report.field("stampede",
                     "{\"wall_ms\": " + JsonReport::num(s * 1e3) +
                         ", \"coalesced\": " + JsonReport::num(coalesced) +
                         ", \"cache_hits\": " + JsonReport::num(cache_hits) +
                         ", \"latency\": " + pct_json(lat) + "}");
        for (const ServeResult& r : results)
            if (!r.ok()) {
                std::fprintf(stderr, "stampede serve failed\n");
                return 1;
            }
    }

    // --- mixed-fleet aggregate throughput across client threads ---
    std::vector<ServeRequest> mix;
    Xoshiro256 rng(7);
    for (int i = 0; i < 512; ++i) {
        const u32 roll = static_cast<u32>(rng.below(100));
        u32 acc = 0;
        for (const ClientClass& c : kFleet) {
            acc += c.weight;
            if (roll < acc) {
                mix.push_back(ServeRequest{"asset", c.parallelism, std::nullopt});
                break;
            }
        }
        if (i % 10 == 0 && size > 4096) {  // 10% byte-range traffic
            const u64 lo = rng.below(size - 4096);
            mix.back().range = {{lo, lo + 4096}};
        }
    }

    const auto fleet_before = server.totals();
    const auto fleet_h0 = server_hist(server, "serve_request_seconds");
    const unsigned fleet_workers =
        std::max(1u, std::thread::hardware_concurrency());
    double total_s = 0;
    u64 total_bytes = 0, hits = 0;
    for (int run = 0; run < n; ++run) {
        std::vector<ServeResult> results(mix.size());
        std::atomic<std::size_t> next{0};
        Stopwatch sw;
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < fleet_workers; ++t)
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < mix.size(); i = next++)
                    results[i] = server.serve(mix[i]);
            });
        for (auto& w : workers) w.join();
        total_s += sw.seconds();
        const BatchStats b = summarize(results);
        if (b.failures != 0) {
            std::fprintf(stderr, "batch had %llu failures\n",
                         static_cast<unsigned long long>(b.failures));
            return 1;
        }
        total_bytes += b.wire_bytes;
        hits += b.cache_hits;
    }
    const auto fleet_after = server.totals();
    const double reqs_per_s = n * static_cast<double>(mix.size()) / total_s;
    std::printf("mixed fleet: %zu reqs/round x %d rounds: %.0f req/s, "
                "%.2f GB/s wire, %.1f%% cache hits\n",
                mix.size(), n, reqs_per_s,
                gbps(static_cast<double>(total_bytes), total_s),
                100.0 * static_cast<double>(hits) /
                    (static_cast<double>(n) * static_cast<double>(mix.size())));
    const auto fleet_lat =
        hist_delta(fleet_h0, server_hist(server, "serve_request_seconds"));
    std::printf("  sharing: %llu coalesced requests, %.1f MB served from "
                "shared buffers instead of recombined\n",
                static_cast<unsigned long long>(fleet_after.coalesced_requests -
                                                fleet_before.coalesced_requests),
                static_cast<double>(fleet_after.bytes_saved -
                                    fleet_before.bytes_saved) / 1e6);
    std::printf("  per-request latency: p50 %.2f us, p99 %.2f us, "
                "p999 %.2f us\n\n",
                fleet_lat.p50() * 1e6, fleet_lat.p99() * 1e6,
                fleet_lat.p999() * 1e6);
    report.field(
        "fleet",
        "{\"requests_per_s\": " + JsonReport::num(reqs_per_s) +
            ", \"wire_gbps\": " +
            JsonReport::num(gbps(static_cast<double>(total_bytes), total_s)) +
            ", \"hit_rate\": " +
            JsonReport::num(static_cast<double>(hits) /
                            (static_cast<double>(n) *
                             static_cast<double>(mix.size()))) +
            ", \"latency\": " + pct_json(fleet_lat) + "}");

    // --- streamed vs materialized production: peak bytes held by the
    // producer. A materialized (gathered) wire is the whole wire; a stream
    // walks the cached response's pieces — owned structural sections,
    // borrowed payload views — so its owned footprint is O(metadata + max
    // frame) regardless of payload size.
    {
        const u64 chunk_bytes = std::max<u64>(size / 40, 4096);
        stream::ChunkedEncoder enc({11, 16});
        for (u64 off = 0; off < data.size(); off += chunk_bytes)
            enc.add_chunk(std::span<const u8>(data).subspan(
                off, std::min<u64>(chunk_bytes, data.size() - off)));
        server.store().add_chunked("bigclip", enc.finish());

        const ServeRequest req{"bigclip", 64, std::nullopt,
                               kAcceptAll | kAcceptStreamed};
        server.cache().clear();
        Stopwatch mat_sw;
        auto materialized = server.serve(req);
        const double mat_s = mat_sw.seconds();
        if (!materialized.ok()) {
            std::fprintf(stderr, "materialized serve failed\n");
            return 1;
        }
        const u64 wire = materialized.stats.wire_bytes;

        StreamOptions sopt;
        // Frame size scaled to the workload so --quick still exercises a
        // many-frame stream with a meaningful wire/frame ratio.
        sopt.max_frame_bytes = std::clamp<u64>(wire / 24, 4096, 64 * 1024);
        const auto frame_h0 = server_hist(server, "stream_frame_seconds");
        Stopwatch stream_sw;
        auto stream = server.serve_stream(req, sopt);
        StreamReassembler client(sopt.max_frame_bytes);
        while (auto frame = stream.next_frame()) client.feed(*frame);
        const double stream_s = stream_sw.seconds();
        auto streamed = client.result();
        const bool exact = streamed.ok() && *streamed.wire == *materialized.wire;
        const u64 peak_owned = stream.peak_owned_bytes();
        std::printf(
            "streamed vs materialized (chunked asset, %llu B wire):\n"
            "  materialized producer holds %llu B (the wire) in %.2f ms\n"
            "  streamed producer holds %llu B owned in %.2f ms\n"
            "  peak-memory ratio: %.0fx smaller, %llu frames [%s]\n\n",
            static_cast<unsigned long long>(wire),
            static_cast<unsigned long long>(wire), mat_s * 1e3,
            static_cast<unsigned long long>(peak_owned), stream_s * 1e3,
            static_cast<double>(wire) / static_cast<double>(peak_owned),
            static_cast<unsigned long long>(stream.frames_emitted()),
            exact ? "bit-exact" : "MISMATCH");
        const auto frame_lat =
            hist_delta(frame_h0, server_hist(server, "stream_frame_seconds"));
        std::printf("  per-frame framing: p50 %.2f us, p99 %.2f us, "
                    "p999 %.2f us\n\n",
                    frame_lat.p50() * 1e6, frame_lat.p99() * 1e6,
                    frame_lat.p999() * 1e6);
        if (!exact) return 1;
        if (peak_owned >= wire / 2) {
            std::fprintf(stderr,
                         "streamed producer held O(wire) bytes — bounded-"
                         "memory acceptance failed\n");
            return 1;
        }
        report.field(
            "streamed",
            "{\"wire_bytes\": " + JsonReport::num(wire) +
                ", \"peak_owned_bytes\": " + JsonReport::num(peak_owned) +
                ", \"materialized_ms\": " + JsonReport::num(mat_s * 1e3) +
                ", \"streamed_ms\": " + JsonReport::num(stream_s * 1e3) +
                ", \"frame_latency\": " + pct_json(frame_lat) + "}");
    }

    // --- stream-concurrency scaling: a live stream is a cursor over its
    // finished pieces, not an OS thread. Open 1k concurrent streams (warm
    // hits on one cached response), pull each one's header + first body
    // frame so every stream is left mid-wire, and hold the process thread
    // count. Acceptance: the whole
    // fleet adds fewer than 2x hardware_concurrency threads over the
    // baseline.
    {
        const u64 tiny_n = 16384;
        auto tiny = workload::gen_text(tiny_n, 99);
        server.store().encode_bytes("tiny", tiny, 16);
        StreamOptions sopt;
        sopt.max_frame_bytes = 512;
        const ServeRequest sreq{"tiny", 4, std::nullopt,
                                kAcceptAll | kAcceptStreamed};
        auto sref = server.serve(ServeRequest{"tiny", 4, std::nullopt});

        // Warm-up drain: pins the reference wire.
        {
            auto warm = server.serve_stream(sreq, sopt);
            StreamReassembler re(sopt.max_frame_bytes);
            while (auto fr = warm.next_frame()) re.feed(*fr);
            auto got = re.result();
            if (!got.ok() || *got.wire != *sref.wire) {
                std::fprintf(stderr, "scaling warm-up stream mismatch\n");
                return 1;
            }
        }

        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        const unsigned threads_before = process_threads();
        const int nstreams = quick ? 100 : 1000;
        std::vector<ServeStream> streams;
        streams.reserve(static_cast<std::size_t>(nstreams));
        unsigned threads_peak = threads_before;
        Stopwatch open_sw;
        for (int i = 0; i < nstreams; ++i) {
            streams.push_back(server.serve_stream(sreq, sopt));
            ServeStream& s = streams.back();
            if (!s.next_frame() || !s.next_frame()) {
                std::fprintf(stderr, "scaling stream %d stalled\n", i);
                return 1;
            }
            if (i % 64 == 0)
                threads_peak = std::max(threads_peak, process_threads());
        }
        threads_peak = std::max(threads_peak, process_threads());
        const double open_s = open_sw.seconds();

        // With the fleet still live, drain fresh streams to completion and
        // check them bit-exact.
        const int ndrain = 16;
        Stopwatch drain_sw;
        for (int i = 0; i < ndrain; ++i) {
            auto s = server.serve_stream(sreq, sopt);
            StreamReassembler re(sopt.max_frame_bytes);
            while (auto fr = s.next_frame()) re.feed(*fr);
            auto got = re.result();
            if (!got.ok() || *got.wire != *sref.wire) {
                std::fprintf(stderr, "scaling drain stream mismatch\n");
                return 1;
            }
        }
        const double drain_s = drain_sw.seconds();

        Stopwatch abandon_sw;
        streams.clear();  // mass abandon
        const double abandon_s = abandon_sw.seconds();

        std::printf(
            "stream scaling: %d live streams opened+first-frame in %.1f ms "
            "(%.0f streams/s), mass abandon %.1f ms\n"
            "  threads: %u before -> %u peak (hw=%u)\n"
            "  %d full drains through the live fleet in %.1f ms, bit-exact\n",
            nstreams, open_s * 1e3, nstreams / std::max(open_s, 1e-9),
            abandon_s * 1e3, threads_before, threads_peak, hw, ndrain,
            drain_s * 1e3);
        const bool threads_ok =
            threads_before == 0 || threads_peak < threads_before + 2 * hw;
        std::printf("  thread growth under %d streams: +%u (acceptance: "
                    "< 2x hardware_concurrency = %u) [%s]\n\n",
                    nstreams, threads_peak - threads_before, 2 * hw,
                    threads_ok ? "ok" : "FAIL");
        report.field(
            "stream_scaling",
            "{\"streams\": " + JsonReport::num(u64(nstreams)) +
                ", \"threads_before\": " + JsonReport::num(u64{threads_before}) +
                ", \"threads_peak\": " + JsonReport::num(u64{threads_peak}) +
                ", \"hardware_concurrency\": " + JsonReport::num(u64{hw}) +
                ", \"open_ms\": " + JsonReport::num(open_s * 1e3) +
                ", \"drain_ms\": " + JsonReport::num(drain_s * 1e3) +
                ", \"abandon_ms\": " + JsonReport::num(abandon_s * 1e3) + "}");
        if (!threads_ok) {
            std::fprintf(stderr,
                         "stream fleet grew the thread count by %u (>= 2x "
                         "hardware_concurrency) — stream scaling "
                         "acceptance failed\n",
                         threads_peak - threads_before);
            return 1;
        }
    }

    // --- cold boot from a persistent store: restart cost is mmap, not
    // re-encode. Persist the master once, then stand up a fresh server from
    // the directory and serve the first response.
    {
        namespace fs = std::filesystem;
        const fs::path dir = fs::temp_directory_path() / "recoil_bench_store";
        fs::remove_all(dir);
        Stopwatch persist_sw;
        {
            AssetStore persist;
            persist.attach_backing(std::make_shared<DiskStore>(dir));
            persist.add_file("asset", *asset->file());  // durable write-through
        }
        const double persist_s = persist_sw.seconds();

        const ServeRequest req{"asset", 16, std::nullopt};
        auto reference = server.serve(req);

        // Boot n fresh servers so first-response gets a distribution, not a
        // single sample (open is mmap + manifest parse; cheap to repeat).
        obs::Histogram boot_lat;
        double open_s = 0, first_s = 0;
        bool exact = true;
        for (int i = 0; i < n; ++i) {
            Stopwatch boot_sw;
            ContentServer booted;
            booted.store().attach_backing(std::make_shared<DiskStore>(dir));
            if (i == 0) open_s = boot_sw.seconds();
            // demand-load (mmap + parse) + combine
            auto first = booted.serve(req);
            const double t = boot_sw.seconds();
            if (i == 0) first_s = t;
            boot_lat.observe(t);
            exact = exact && first.ok() && reference.ok() &&
                    *first.wire == *reference.wire;
        }
        const auto boot_snap = hist_snap(boot_lat);
        std::printf(
            "cold boot from disk: store open %.2f ms, first response %.2f ms "
            "(demand-load + combine) vs %.0f ms re-encode; persist %.0f ms; "
            "p50/p99/p999 %.2f/%.2f/%.2f ms over %d boots; restart "
            "response %s\n",
            open_s * 1e3, first_s * 1e3, encode_s * 1e3, persist_s * 1e3,
            boot_snap.p50() * 1e3, boot_snap.p99() * 1e3,
            boot_snap.p999() * 1e3, n, exact ? "bit-exact" : "MISMATCH");
        fs::remove_all(dir);
        if (!exact) return 1;
        report.field("cold_boot",
                     "{\"open_ms\": " + JsonReport::num(open_s * 1e3) +
                         ", \"first_response_ms\": " +
                         JsonReport::num(first_s * 1e3) +
                         ", \"reencode_ms\": " +
                         JsonReport::num(encode_s * 1e3) +
                         ", \"first_response_latency\": " +
                         pct_json(boot_snap) + "}");
    }

    // --- telemetry overhead on the warm-hit path. A warm hit here is a few
    // hundred nanoseconds, so full per-request tracing (a handful of clock
    // reads) is measurable at this scale — that regime is what
    // ServerOptions::sample_every exists for: 1-in-N requests take the
    // timed path, the rest pay one relaxed fetch_add, and counters stay
    // exact. The 2% acceptance gate covers the sampled configuration; the
    // full-fidelity (sample_every=1) cost is reported alongside it as an
    // absolute number, because for network-scale serves (us-ms) that cost
    // is noise. The gate is enforced only on full runs (--quick rounds
    // are too short to resolve it), and carries a 20 ns absolute floor:
    // 2% of a ~350 ns warm hit is below the jitter any real machine shows
    // at this scale, while a regression that matters (the timed path
    // running unsampled) costs hundreds of ns and still fails loudly.
    // Rounds are interleaved across the three configurations — every
    // round times all three back-to-back, best-of-rounds per config — so
    // each best comes from the same machine epoch and frequency/load
    // drift between measurement blocks cancels instead of biasing one
    // side of the comparison. The visiting order rotates per round:
    // within a round the machine state still evolves (turbo decay makes
    // the first loop systematically fastest), so each config takes the
    // best of rounds where it ran first, middle and last.
    double telemetry_overhead = 0;
    double telemetry_delta_ns = 0;
    {
        const ServeRequest req{"asset", 16, std::nullopt};
        const int reps = quick ? 2000 : 20000;
        const u32 kSample = 64;
        auto make_server = [&](bool telemetry, u32 sample_every) {
            ServerOptions topt;
            topt.telemetry = telemetry;
            topt.sample_every = sample_every;
            auto tsrv = std::make_unique<ContentServer>(topt);
            tsrv->store().add_file("asset", *asset->file());
            tsrv->serve(req);  // prime the cache
            return tsrv;
        };
        std::unique_ptr<ContentServer> servers[3] = {
            make_server(false, 1),        // telemetry disabled
            make_server(true, kSample),   // sampled 1-in-64 (the gate)
            make_server(true, 1)};        // full per-request tracing
        double best[3] = {1e30, 1e30, 1e30};
        for (int round = 0; round < 9; ++round)
            for (int slot = 0; slot < 3; ++slot) {
                const int ci = (round + slot) % 3;
                Stopwatch sw;
                for (int i = 0; i < reps; ++i) servers[ci]->serve(req);
                best[ci] = std::min(best[ci], sw.seconds() / reps);
            }
        const double off_ns = best[0] * 1e9;
        const double sampled_ns = best[1] * 1e9;
        const double full_ns = best[2] * 1e9;
        telemetry_overhead = off_ns > 0 ? sampled_ns / off_ns - 1.0 : 0.0;
        telemetry_delta_ns = sampled_ns - off_ns;
        const double full_overhead = off_ns > 0 ? full_ns / off_ns - 1.0 : 0.0;
        std::printf(
            "telemetry overhead (warm hit): disabled %.0f ns; sampled "
            "1/%u %.0f ns = %+.2f%% (acceptance: <= 2%% or 20 ns); full "
            "tracing %.0f ns = %+.1f%% (+%.0f ns absolute)\n\n",
            off_ns, kSample, sampled_ns, 100.0 * telemetry_overhead, full_ns,
            100.0 * full_overhead, full_ns - off_ns);
        report.field(
            "telemetry_overhead",
            "{\"warm_hit_ns_off\": " + JsonReport::num(off_ns) +
                ", \"warm_hit_ns_sampled\": " + JsonReport::num(sampled_ns) +
                ", \"warm_hit_ns_full\": " + JsonReport::num(full_ns) +
                ", \"sample_every\": " + JsonReport::num(u64{kSample}) +
                ", \"overhead_sampled\": " +
                JsonReport::num(telemetry_overhead) +
                ", \"overhead_full\": " + JsonReport::num(full_overhead) +
                "}");
    }

    // --- loopback serving through the epoll daemon (--net): what the wire
    // protocol + transport framing + event loop cost on top of the
    // in-process call. Small warm range requests measure round-trip
    // latency under concurrent connections; v2 streamed full-asset fetches
    // measure bulk socket throughput. Loopback numbers are an upper bound
    // on protocol overhead, not a NIC benchmark.
    if (with_net) {
        net::Daemon daemon(server, {});
        std::thread loop([&] { daemon.run(); });
        const u16 port = daemon.port();

        const u64 net_span = std::min<u64>(size / 2, 4096);
        const ServeRequest small_req{"asset", 1,
                                     {{size / 2, size / 2 + net_span}}};
        const auto inproc =
            measure_serve(server, small_req, quick ? 200 : 2000, false);

        const int net_conns = 16;
        const int net_reqs = quick ? 100 : 500;
        obs::Histogram net_lat;
        std::atomic<u64> net_failures{0};
        Stopwatch net_wall;
        {
            std::vector<std::thread> clients;
            clients.reserve(net_conns);
            for (int t = 0; t < net_conns; ++t) {
                clients.emplace_back([&] {
                    net::ClientOptions copt;
                    copt.port = port;
                    net::Client c(copt);
                    for (int i = 0; i < net_reqs; ++i) {
                        Stopwatch sw;
                        auto res = c.request(small_req);
                        net_lat.observe(sw.seconds());
                        if (!res.ok()) net_failures.fetch_add(1);
                    }
                });
            }
            for (auto& th : clients) th.join();
        }
        const double net_wall_s = net_wall.seconds();
        const double net_rps =
            static_cast<double>(net_conns) * net_reqs / net_wall_s;
        const auto net_snap = hist_snap(net_lat);

        // Bulk: stream the whole asset over v2 framing, several
        // connections at once, and count delivered wire bytes.
        const ServeRequest bulk_req{"asset", 16, std::nullopt};
        const int bulk_conns = 4, bulk_reps = quick ? 1 : 2;
        std::atomic<u64> bulk_bytes{0};
        Stopwatch bulk_sw;
        {
            std::vector<std::thread> clients;
            for (int t = 0; t < bulk_conns; ++t) {
                clients.emplace_back([&] {
                    net::ClientOptions copt;
                    copt.port = port;
                    net::Client c(copt);
                    for (int i = 0; i < bulk_reps; ++i) {
                        auto res = c.request_streamed(bulk_req);
                        if (!res.ok() || !res.wire) {
                            net_failures.fetch_add(1);
                            continue;
                        }
                        bulk_bytes.fetch_add(res.wire->size());
                    }
                });
            }
            for (auto& th : clients) th.join();
        }
        const double bulk_s = bulk_sw.seconds();
        const double bulk_gbps =
            gbps(static_cast<double>(bulk_bytes.load()), bulk_s);

        daemon.begin_drain();
        loop.join();
        if (net_failures.load() != 0) {
            std::fprintf(stderr, "net section had %llu failures\n",
                         static_cast<unsigned long long>(net_failures.load()));
            return 1;
        }
        const auto ds = daemon.stats();
        std::printf(
            "net loopback: %d conns x %d warm range reqs: %.0f req/s; "
            "p50/p99/p999 %.2f/%.2f/%.2f us over socket vs "
            "%.2f/%.2f/%.2f us in-process\n"
            "  streamed bulk: %d conns x %d full fetches, %.2f GB/s over "
            "socket (%llu B wire each); daemon served %llu requests, "
            "peak %llu conns\n\n",
            net_conns, net_reqs, net_rps, net_snap.p50() * 1e6,
            net_snap.p99() * 1e6, net_snap.p999() * 1e6,
            inproc.hist.p50() * 1e6, inproc.hist.p99() * 1e6,
            inproc.hist.p999() * 1e6, bulk_conns, bulk_reps, bulk_gbps,
            static_cast<unsigned long long>(
                bulk_bytes.load() /
                std::max<u64>(1, u64(bulk_conns) * bulk_reps)),
            static_cast<unsigned long long>(ds.requests),
            static_cast<unsigned long long>(ds.peak_connections));
        report.field(
            "net",
            "{\"connections\": " + JsonReport::num(u64(net_conns)) +
                ", \"requests_per_conn\": " + JsonReport::num(u64(net_reqs)) +
                ", \"requests_per_s\": " + JsonReport::num(net_rps) +
                ", \"latency\": " + pct_json(net_snap) +
                ", \"inprocess_latency\": " + pct_json(inproc.hist) +
                ", \"streamed_gbps\": " + JsonReport::num(bulk_gbps) + "}");
    }

    // --- sharded serving scale-out: one seed-deterministic multi-tenant
    // trace (Zipf tenants, a flash crowd, a unique-scan window) replayed
    // closed-loop by a fixed worker fleet against 1/2/4/8 shards. The same
    // request sequence at every shard count isolates what the shard router
    // buys: contended-server mutexes and caches split N ways. Gated below:
    // 4 shards must at least double 1-shard throughput, and the 4-shard
    // p999 must not regress against 1 shard at the identical offered load.
    double shard1_rps = 0, shard4_rps = 0;
    double shard1_p999 = 0, shard4_p999 = 0;
    {
        workload::TrafficOptions topt;
        if (quick) {
            topt.tenants = {{"alpha", 8, 1.1, 2.0}, {"bravo", 8, 0.9, 1.0}};
            topt.requests = 4000;
        } else {
            topt.tenants = {{"alpha", 24, 1.1, 3.0},
                            {"bravo", 24, 0.9, 2.0},
                            {"carol", 16, 1.3, 1.0}};
            topt.requests = 60'000;
        }
        topt.offered_rps = 1e9;  // stamps unused: replay is closed-loop
        topt.phases = {{workload::PhaseSpec::Kind::flash_crowd, 0.40, 0.50,
                        0, 0.6},
                       {workload::PhaseSpec::Kind::unique_scan, 0.70, 0.80,
                        0, 0.5}};
        topt.seed = 42;
        const auto plan = workload::traffic_plan(topt);
        const u64 asset_bytes = quick ? 16'384 : 65'536;
        constexpr u64 kScanSpan = 4096;
        const u32 workers =
            std::max(4u, std::thread::hardware_concurrency() / 2);

        const std::vector<u32> shard_counts =
            quick ? std::vector<u32>{1, 4} : std::vector<u32>{1, 2, 4, 8};
        std::string shard_json = "[";
        bool first_point = true;
        for (const u32 nshards : shard_counts) {
            ShardedOptions sopt2;
            sopt2.shards = nshards;
            ShardedServer router(sopt2);
            for (u32 t = 0; t < topt.tenants.size(); ++t) {
                const auto& ten = topt.tenants[t];
                for (u32 k = 1; k <= ten.keys; ++k) {
                    auto corpus = workload::gen_text(
                        asset_bytes, 7000 + 131 * t + k);
                    router.encode_bytes(
                        workload::traffic_asset_name(ten, k), corpus, 32);
                }
            }
            // Warm pass: every asset served once, so the timed replay
            // measures steady-state routing + cache behaviour.
            for (const auto& ten : topt.tenants)
                for (u32 k = 1; k <= ten.keys; ++k)
                    router.serve(ServeRequest{
                        workload::traffic_asset_name(ten, k), 4, {}});

            obs::Histogram lat;
            std::atomic<std::size_t> cursor{0};
            std::atomic<u64> shard_fails{0};
            Stopwatch wall;
            {
                std::vector<std::thread> fleet;
                fleet.reserve(workers);
                for (u32 w = 0; w < workers; ++w) {
                    fleet.emplace_back([&] {
                        for (;;) {
                            const std::size_t i = cursor.fetch_add(1);
                            if (i >= plan.size()) return;
                            const auto& a = plan[i];
                            const auto& ten = topt.tenants[a.tenant];
                            ServeRequest req{
                                workload::traffic_asset_name(ten, a.key), 4,
                                {}};
                            if (a.scan) {
                                const u64 lo =
                                    (static_cast<u64>(a.index) * 997) %
                                    (asset_bytes - kScanSpan);
                                req.range = {{lo, lo + kScanSpan}};
                            }
                            Stopwatch sw;
                            auto res = router.serve(req);
                            lat.observe(sw.seconds());
                            if (!res.ok()) shard_fails.fetch_add(1);
                        }
                    });
                }
                for (auto& th : fleet) th.join();
            }
            const double wall_s = wall.seconds();
            if (shard_fails.load() != 0) {
                std::fprintf(stderr, "shard scaling (%u shards): %llu "
                             "failed serves\n", nshards,
                             static_cast<unsigned long long>(
                                 shard_fails.load()));
                return 1;
            }
            const double rps = static_cast<double>(plan.size()) / wall_s;
            const auto snap = hist_snap(lat);
            const auto tot = router.totals();
            std::printf(
                "shard scaling: %u shard%s, %u workers, %zu reqs: "
                "%.0f req/s; p50/p99/p999 %.2f/%.2f/%.2f us "
                "(%llu routed, %llu peer fetches)\n",
                nshards, nshards == 1 ? " " : "s", workers, plan.size(),
                rps, snap.p50() * 1e6, snap.p99() * 1e6,
                snap.p999() * 1e6,
                static_cast<unsigned long long>(tot.routed),
                static_cast<unsigned long long>(tot.peer_fetches));
            shard_json += first_point ? "\n    " : ",\n    ";
            first_point = false;
            shard_json += "{\"shards\": " + JsonReport::num(u64{nshards}) +
                          ", \"requests_per_s\": " + JsonReport::num(rps) +
                          ", \"latency\": " + pct_json(snap) + "}";
            if (nshards == 1) {
                shard1_rps = rps;
                shard1_p999 = snap.p999();
            }
            if (nshards == 4) {
                shard4_rps = rps;
                shard4_p999 = snap.p999();
            }
        }
        std::printf("\n");
        report.field(
            "shard_scaling",
            "{\"workers\": " + JsonReport::num(u64{workers}) +
                ", \"requests\": " + JsonReport::num(u64{plan.size()}) +
                ", \"tenants\": " +
                JsonReport::num(u64{topt.tenants.size()}) +
                ", \"points\": " + shard_json + "]}");
    }

    // --- multi-loop daemon: the same warm range workload the --net section
    // measures, but with the daemon running 4 epoll loops, each accepting
    // on its own SO_REUSEPORT listener. Informational: loopback accept
    // distribution is kernel policy, so this reports the shape rather than
    // gating on it.
    if (with_net) {
        net::DaemonOptions mdopt;
        mdopt.loops = 4;
        net::Daemon daemon(server, mdopt);
        std::thread loop([&] { daemon.run(); });
        const u16 port = daemon.port();

        const u64 net_span = std::min<u64>(size / 2, 4096);
        const ServeRequest small_req{"asset", 1,
                                     {{size / 2, size / 2 + net_span}}};
        const int ml_conns = 16;
        const int ml_reqs = quick ? 100 : 500;
        obs::Histogram ml_lat;
        std::atomic<u64> ml_failures{0};
        Stopwatch ml_wall;
        {
            std::vector<std::thread> clients;
            clients.reserve(ml_conns);
            for (int t = 0; t < ml_conns; ++t) {
                clients.emplace_back([&] {
                    net::ClientOptions copt;
                    copt.port = port;
                    net::Client c(copt);
                    for (int i = 0; i < ml_reqs; ++i) {
                        Stopwatch sw;
                        auto res = c.request(small_req);
                        ml_lat.observe(sw.seconds());
                        if (!res.ok()) ml_failures.fetch_add(1);
                    }
                });
            }
            for (auto& th : clients) th.join();
        }
        const double ml_wall_s = ml_wall.seconds();
        daemon.begin_drain();
        loop.join();
        if (ml_failures.load() != 0) {
            std::fprintf(stderr, "multi-loop section had %llu failures\n",
                         static_cast<unsigned long long>(ml_failures.load()));
            return 1;
        }
        const double ml_rps =
            static_cast<double>(ml_conns) * ml_reqs / ml_wall_s;
        const auto ml_snap = hist_snap(ml_lat);
        const auto mls = daemon.stats();
        std::printf(
            "daemon multi-loop: %llu loops, %d conns x %d warm range "
            "reqs: %.0f req/s; p50/p99/p999 %.2f/%.2f/%.2f us; "
            "%llu wakeups\n\n",
            static_cast<unsigned long long>(mls.loops), ml_conns, ml_reqs,
            ml_rps, ml_snap.p50() * 1e6, ml_snap.p99() * 1e6,
            ml_snap.p999() * 1e6,
            static_cast<unsigned long long>(mls.loop_wakeups));
        report.field(
            "daemon_multiloop",
            "{\"loops\": " + JsonReport::num(u64{mls.loops}) +
                ", \"connections\": " + JsonReport::num(u64(ml_conns)) +
                ", \"requests_per_s\": " + JsonReport::num(ml_rps) +
                ", \"latency\": " + pct_json(ml_snap) + "}");
    }

    // The full unified snapshot — every subsystem's counters plus the
    // per-phase histograms — rides along in the report, so a perf
    // regression comes with the telemetry needed to explain it.
    report.field("metrics", server.metrics().snapshot().to_json());

    // The report lands BEFORE the acceptance gates: a failing run is
    // exactly the one whose numbers are needed to debug it.
    if (json_path != nullptr) {
        if (!report.write(json_path)) {
            std::fprintf(stderr, "failed to write %s\n", json_path);
            return 1;
        }
        std::printf("wrote machine-readable report to %s\n", json_path);
    }
    if (!quick && telemetry_overhead > 0.02 && telemetry_delta_ns > 20.0) {
        std::fprintf(stderr,
                     "telemetry overhead %.2f%% (+%.0f ns) exceeded the "
                     "2%%-or-20 ns warm-hit budget\n",
                     100.0 * telemetry_overhead, telemetry_delta_ns);
        return 1;
    }
    // Shard scale-out acceptance: splitting the fleet across 4 servers must
    // at least double 1-shard throughput under the identical trace, and the
    // tail must not pay for it (1.25x slack absorbs scheduler jitter in the
    // p999 estimate). --quick runs are too short to resolve either, and a
    // host without at least 4 cores cannot express parallel speedup at all
    // (the SIMD gate's capable-host precedent) — those runs report the
    // points informationally.
    if (!quick && shard1_rps > 0 &&
        std::thread::hardware_concurrency() >= 4) {
        if (shard4_rps < 2.0 * shard1_rps) {
            std::fprintf(stderr,
                         "4-shard throughput %.0f req/s < 2x 1-shard "
                         "%.0f req/s — shard scaling acceptance failed\n",
                         shard4_rps, shard1_rps);
            return 1;
        }
        if (shard4_p999 > 1.25 * shard1_p999) {
            std::fprintf(stderr,
                         "4-shard p999 %.2f us regressed past 1-shard "
                         "%.2f us at equal offered load — tail acceptance "
                         "failed\n",
                         shard4_p999 * 1e6, shard1_p999 * 1e6);
            return 1;
        }
    }
    // On a host where dispatch picked a vector backend, the guarded range
    // kernels must actually pay for themselves; scalar-only hosts report
    // the sweep informationally. --quick runs are too short to resolve it.
    if (!quick && best_backend != simd::Backend::Scalar &&
        simd_best_speedup < 1.5) {
        std::fprintf(stderr,
                     "SIMD range decode best speedup %.2fx < 1.5x on a %s "
                     "host — vectorized range acceptance failed\n",
                     simd_best_speedup, simd::backend_name(best_backend));
        return 1;
    }
    return worst_ratio >= 10.0 ? 0 : 1;
}
