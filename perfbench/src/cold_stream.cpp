// cold-stream: closed loop, two clients over loopback against recoil_served
// (--shards 2 --loops 2 --mem-budget 16M). Each client fetches the
// decode-classes corpus kinds as v2 streams at rotating classes, then
// decodes (SIMD, on the client's thread) and verifies them. The budget is
// below the assets x classes working set, so requests miss, combine, evict,
// unload and demand-load from the mmapped store: the full client -> socket
// -> daemon -> shard -> combine -> stream -> decode path.

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "serve/shard_router.hpp"

namespace pb {
namespace {

constexpr u64 kBytesEach = u64{4} << 20;
constexpr u64 kBudgetBytes = u64{16} << 20;
constexpr unsigned kClients = 2;
constexpr int kSetups = 3;

serve::ShardedOptions shard_options(const std::filesystem::path& store) {
    serve::ShardedOptions o;  // as recoil_served --shards 2 --mem-budget builds it
    o.shards = 2;
    o.rebalance_every = 1024;
    o.total_budget_bytes = kBudgetBytes;
    o.store_dir = store;
    return o;
}

struct Fetch {
    std::size_t asset = 0;
    u32 cls = 1;
    double latency = 0, ttfb = 0, ttlb = 0, decode = 0;
    u64 frames = 0, wire_bytes = 0;
    bool ok = false, hit = false;
};

struct LoopResult {
    std::vector<Fetch> fetches;
    double wall = 0;
};

/// Client `c` walks (asset, class) pairs in its own rotation so the two
/// clients never ask for the same pair in lockstep. Each decodes on its own
/// thread: with the daemon's loops and executor beside them, client decode
/// pools oversubscribed this 4-vCPU host and made every figure noisier.
LoopResult fetch_loop(const Corpus& corpus, u16 port, double seconds, u64 id_base) {
    LoopResult r;
    std::mutex mu;
    const std::size_t n = corpus.assets.size();
    const auto start = Clock::now();
    auto client = [&](unsigned c) {
        net::ClientOptions co;
        co.port = port;
        auto conn = std::make_unique<net::Client>(co);
        std::vector<Fetch> mine;
        for (u64 k = 0; seconds_between(start, Clock::now()) < seconds; ++k) {
            Fetch f;
            f.asset = (k + c) % n;
            f.cls = kClasses[(k / n + c * 2) % std::size(kClasses)];
            const CorpusAsset& a = corpus.assets[f.asset];
            const u64 id = id_base + k * kClients + c;
            try {
                Span root("fetch", id);
                const auto t0 = Clock::now();
                Clock::time_point first{};
                serve::ServeResult res;
                {
                    Span s("net.stream", id);
                    serve::ServeRequest req{a.name, f.cls, std::nullopt};
                    res = conn->request_streamed(req, [&](std::span<const u8>) {
                        if (f.frames++ == 0) first = Clock::now();
                    });
                }
                const auto t1 = Clock::now();
                f.ttfb = seconds_between(t0, first);
                f.ttlb = seconds_between(t0, t1);
                f.hit = res.stats.cache_hit;
                RECOIL_CHECK(res.ok() && res.wire, "cold-stream: " + res.detail);
                f.wire_bytes = res.wire->size();
                auto decoded = client_decode(*res.wire, a.is_chunked(), nullptr, id);
                f.decode = seconds_between(t1, Clock::now());
                Span s("client.verify", id);
                f.ok = decoded == a.source;
                if (!f.ok) std::printf("MISMATCH: %s at class %u\n", a.name.c_str(), f.cls);
                f.latency = seconds_between(t0, Clock::now());
            } catch (const std::exception& e) {
                std::printf("FAILED: %s at class %u: %s\n", a.name.c_str(), f.cls, e.what());
                try {
                    conn = std::make_unique<net::Client>(co);
                } catch (const std::exception&) {
                }
            }
            mine.push_back(f);
        }
        std::lock_guard<std::mutex> lk(mu);
        r.fetches.insert(r.fetches.end(), mine.begin(), mine.end());
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
    r.wall = seconds_between(start, Clock::now());
    return r;
}

std::unique_ptr<DaemonProc> set_up(const Args& args, const std::filesystem::path& store,
                                   Corpus& corpus) {
    std::filesystem::remove_all(store);
    corpus = make_corpus(args.seed, kBytesEach);
    {
        serve::ShardedServer router(shard_options(store));
        for (const auto& a : corpus.assets) {
            auto& home = router.shard(router.shard_of(a.name)).store();
            if (a.is_chunked())
                home.add_chunked(a.name, a.chunked);
            else
                home.add_file(a.name, a.file);
        }
    }
    auto d = std::make_unique<DaemonProc>(
        args.daemon,
        std::vector<std::string>{"--store", store.string(), "--port", "0", "--shards", "2",
                                 "--loops", "2", "--mem-budget",
                                 std::to_string(kBudgetBytes >> 20) + "M"});
    wait_accepting(d->port());
    return d;
}

struct DaemonCounters {
    u64 requests = 0, wakeups = 0, peer_fetches = 0;
    std::vector<u64> shard_requests;
};

/// The daemon's router and loop counters from a `!metrics.json` scrape.
DaemonCounters scrape(u16 port) {
    net::ClientOptions co;
    co.port = port;
    net::Client c(co);
    const std::string j = c.fetch_metrics(true);
    DaemonCounters d;
    d.requests = scrape_counter(j, "daemon_requests_total");
    d.wakeups = scrape_counter(j, "daemon_loop_wakeups_total");
    d.peer_fetches = scrape_counter(j, "shard_peer_fetches_total");
    for (int s = 0; s < 2; ++s)
        d.shard_requests.push_back(
            scrape_counter(j, "shard_requests_total{shard=\"" + std::to_string(s) + "\"}"));
    return d;
}

/// Sum a histogram across the shards' registries (same bucket geometry).
obs::HistogramSnapshot merged(serve::ShardedServer& s, const std::string& name) {
    obs::HistogramSnapshot m;
    for (u32 i = 0; i < s.shard_count(); ++i) {
        const auto snap = s.shard(i).metrics().snapshot();
        if (const auto* h = snap.find_histogram(name)) {
            m.count += h->count;
            m.sum_ns += h->sum_ns;
            for (std::size_t b = 0; b < m.buckets.size(); ++b) m.buckets[b] += h->buckets[b];
        }
    }
    return m;
}

}  // namespace

void run_cold_stream(const Args& args, Sheet& sheet) {
    const std::filesystem::path store = args.work / "cold-stream-store";
    std::vector<double> setups;
    std::unique_ptr<DaemonProc> daemon;
    Corpus corpus;
    for (int i = 0; i < kSetups; ++i) {
        daemon.reset();
        corpus = Corpus{};
        const auto t0 = Clock::now();
        daemon = set_up(args, store, corpus);
        setups.push_back(seconds_between(t0, Clock::now()));
    }
    std::printf("setup: %d x (corpus of %.1f MB, encode, store write, daemon boot with "
                "--mem-budget %lluM), median %.3f s\n",
                kSetups, static_cast<double>(corpus.source_bytes) / 1e6,
                static_cast<unsigned long long>(kBudgetBytes >> 20), median(setups));

    const u16 port = daemon->port();
    const DaemonCounters c0 = scrape(port);
    const ProcSample p0 = sample_proc(daemon->pid());
    LoopResult plain = fetch_loop(corpus, port, args.trace ? args.seconds / 2 : args.seconds, 0);
    LoopResult traced;
    if (args.trace) {
        tracer().enable(true);
        traced = fetch_loop(corpus, port, args.seconds / 2, 10'000'000);
        tracer().enable(false);
    }
    const ProcSample p1 = sample_proc(daemon->pid());
    const DaemonCounters c1 = scrape(port);
    daemon->stop();

    std::vector<double> latency;
    double source = 0;
    std::map<std::pair<std::size_t, u32>, u64> wire;
    for (const LoopResult* r : {&plain, &traced}) {
        for (const Fetch& f : r->fetches) {
            ++sheet.attempted;
            if (!f.ok) {
                ++sheet.failed;
                continue;
            }
            wire[{f.asset, f.cls}] = f.wire_bytes;
        }
    }
    for (const Fetch& f : plain.fetches) {
        if (!f.ok) continue;
        latency.push_back(f.latency);
        source += static_cast<double>(corpus.assets[f.asset].source.size());
    }
    // Overhead over the Single-Thread (class-1) wire, per class, averaged.
    double overhead = 0;
    for (u32 cls : kClasses) {
        double sum = 0, single = 0;
        for (std::size_t a = 0; a < corpus.assets.size(); ++a) {
            sum += static_cast<double>(wire[{a, cls}]);
            single += static_cast<double>(wire[{a, 1}]);
        }
        overhead += 100.0 * (sum / single - 1);
    }
    overhead /= static_cast<double>(std::size(kClasses));

    if (!args.trace) {
        const double q = supported_tail_quantile(latency.size());
        std::printf("closed loop, %u clients: %zu fetches in %.2f s; latency_p99_ms reports "
                    "p%g over %zu samples\n",
                    kClients, plain.fetches.size(), plain.wall, q * 100, latency.size());
        sheet.set("setup_s", median(setups), "s");
        sheet.set("latency_p50_ms", median(latency) * 1e3, "ms");
        sheet.set("latency_p99_ms", percentile(latency, q) * 1e3, "ms");
        sheet.set("decoded_gbps", source / plain.wall / 1e9, "GB/s");
        sheet.set("wire_overhead_pct", overhead, "%");
        sheet.set("server_cpu_us_per_req",
                  (p1.cpu_seconds - p0.cpu_seconds) /
                      static_cast<double>(plain.fetches.size()) * 1e6,
                  "us");
        sheet.set("server_peak_rss_mb", p1.hwm_mb, "MB");
        return;
    }

    std::vector<double> plain_lat, traced_lat, ttfb, ttlb, decode;
    double frames = 0, wire_total = 0, ttlb_total = 0;
    u64 hits = 0, ok = 0;
    for (const Fetch& f : plain.fetches)
        if (f.ok) plain_lat.push_back(f.latency);
    for (const Fetch& f : traced.fetches) {
        if (!f.ok) continue;
        ++ok;
        traced_lat.push_back(f.latency);
        ttfb.push_back(f.ttfb);
        ttlb.push_back(f.ttlb);
        decode.push_back(f.decode);
        frames += static_cast<double>(f.frames);
        wire_total += static_cast<double>(f.wire_bytes);
        ttlb_total += f.ttlb;
        hits += f.hit ? 1 : 0;
    }
    const double okd = static_cast<double>(ok);

    // Replay the traced fetch sequence in process (streamed, sequentially)
    // against a ShardedServer with the daemon's budget over the same store:
    // the shard registries give the serve-side histograms and cache counts
    // the sharded daemon does not export, and each fetch's time to last
    // byte splits into in-process serve time and transport time.
    std::vector<double> transport;
    {
        serve::ShardedServer replay(shard_options(store));
        for (const Fetch& f : traced.fetches) {
            serve::ServeRequest req{corpus.assets[f.asset].name, f.cls, std::nullopt};
            req.accept |= serve::kAcceptStreamed;
            const auto t0 = Clock::now();
            auto st = replay.serve_stream(req);
            RECOIL_CHECK(st.head().ok(), "cold-stream replay: " + st.head().detail);
            while (st.next_frame()) {
            }
            if (f.ok) transport.push_back(f.ttlb - seconds_between(t0, Clock::now()));
        }
        const auto combine = merged(replay, "serve_combine_seconds");
        const auto frame = merged(replay, "stream_frame_seconds");
        double evictions = 0, unloads = 0, bytes = 0, entries = 0;
        for (u32 i = 0; i < replay.shard_count(); ++i) {
            const auto cs = replay.shard(i).cache().stats();
            evictions += static_cast<double>(cs.evictions);
            bytes += static_cast<double>(cs.bytes);
            entries += static_cast<double>(cs.entries);
            unloads += static_cast<double>(replay.shard(i).governor().stats().unloads);
        }
        sheet.set("serve.combine_ms_p50", combine.p50() * 1e3, "ms");
        sheet.set("serve.combine_ms_p99", combine.p99() * 1e3, "ms");
        sheet.set("serve.stream_frame_us_p50", frame.p50() * 1e6, "us");
        sheet.set("serve.evictions_per_req",
                  evictions / static_cast<double>(traced.fetches.size()), "count");
        sheet.set("serve.unloads", unloads, "count");
        sheet.set("serve.cache_bytes_per_entry", entries > 0 ? bytes / entries : 0, "B");
    }

    // Serialize cost of the same wires, for the server-side share.
    double ser_s = 0, ser_bytes = 0;
    for (const auto& a : corpus.assets) {
        for (u32 cls : kClasses) {
            const auto t0 = Clock::now();
            ser_bytes += static_cast<double>(serve_wire(a, cls).size());
            ser_s += seconds_between(t0, Clock::now());
        }
    }
    double parse_s = 0;
    for (double d : tracer().durations("format.parse")) parse_s += d;

    sheet.set("rans.encode_mbps",
              static_cast<double>(corpus.source_bytes) / corpus.encode_seconds / 1e6, "MB/s");
    sheet.set("format.serialize_ns_per_byte", ser_s / ser_bytes * 1e9, "ns");
    sheet.set("format.parse_ns_per_byte", parse_s / wire_total * 1e9, "ns");
    sheet.set("serve.cache_hit_ratio", static_cast<double>(hits) / okd, "ratio");
    sheet.set("net.ttfb_ms_p50", median(ttfb) * 1e3, "ms");
    sheet.set("net.ttlb_ms_p50", median(ttlb) * 1e3, "ms");
    sheet.set("net.frames_per_response", frames / okd, "count");
    sheet.set("net.stream_gbps", wire_total / ttlb_total / 1e9, "GB/s");
    sheet.set("client.decode_ms_p50", median(decode) * 1e3, "ms");
    sheet.set("net.transport_us_p50", median(transport) * 1e6, "us");
    const double daemon_reqs = static_cast<double>(c1.requests - c0.requests);
    sheet.set("net.wakeups_per_req", static_cast<double>(c1.wakeups - c0.wakeups) / daemon_reqs,
              "count");
    print_skipped("net.syscalls_per_req",
                  "no per-process syscall counter is readable without ptrace or perf");
    u64 lo = ~u64{0}, hi = 0;
    for (std::size_t s = 0; s < c1.shard_requests.size(); ++s) {
        lo = std::min(lo, c1.shard_requests[s] - c0.shard_requests[s]);
        hi = std::max(hi, c1.shard_requests[s] - c0.shard_requests[s]);
    }
    sheet.set("shard.load_skew", lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo),
              "ratio");
    sheet.set("shard.peer_fetches", static_cast<double>(c1.peer_fetches - c0.peer_fetches),
              "count");
    sheet.set("workload.error_ratio",
              static_cast<double>(sheet.failed) / static_cast<double>(sheet.attempted), "ratio");
    report_trace(sheet, 100.0 * (median(traced_lat) / median(plain_lat) - 1));
    tracer().write_chrome(args.trace_out);
}

}  // namespace pb
