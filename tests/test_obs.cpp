// Tests for the unified telemetry layer: histogram bucket geometry and the
// percentile estimator against an exact reference, registry snapshot
// consistency under concurrent writers (the TSan job runs these), callback
// metrics and replace-on-rebind, slow-request-log retention and failure
// capture, trace span nesting, and the ContentServer integration — one
// snapshot covering all four serve subsystems, traces for hit/miss/stream/
// failed requests, the "!metrics" wire introspection surface, sampling, and
// the sample_every = 0 baseline. Also pins the documented CacheStats counter
// lifetimes (docs/serve_cache.md): which counters are cumulative across
// clear() and which describe current contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

namespace recoil::obs {
namespace {

TEST(Histogram, BucketGeometry) {
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 0);
    EXPECT_EQ(Histogram::bucket_of(2), 1);
    EXPECT_EQ(Histogram::bucket_of(3), 1);
    EXPECT_EQ(Histogram::bucket_of(1023), 9);
    EXPECT_EQ(Histogram::bucket_of(1024), 10);
    EXPECT_EQ(Histogram::bucket_of(~u64{0}), Histogram::kBuckets - 1);

    EXPECT_EQ(Histogram::bucket_lo_ns(0), 0u);
    EXPECT_EQ(Histogram::bucket_hi_ns(0), 2u);
    for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
        EXPECT_EQ(Histogram::bucket_lo_ns(i), u64{1} << i);
        EXPECT_EQ(Histogram::bucket_hi_ns(i), u64{1} << (i + 1));
        // Every sample lands in the bucket whose [lo, hi) contains it.
        EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo_ns(i)), i);
        EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi_ns(i) - 1), i);
    }
    EXPECT_EQ(Histogram::bucket_hi_ns(Histogram::kBuckets - 1), ~u64{0});
}

TEST(Histogram, ObservePlacesSamples) {
    Histogram h;
    h.observe_ns(0);
    h.observe_ns(1);
    h.observe_ns(1000);    // bucket 9: [512, 1024)
    h.observe_ns(1024);    // bucket 10
    h.observe(1.5e-6);     // 1500 ns -> bucket 10
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum_ns(), 0u + 1 + 1000 + 1024 + 1500);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.bucket(10), 2u);
}

HistogramSnapshot snap_of(const Histogram& h, std::string name = "h") {
    HistogramSnapshot s;
    s.name = std::move(name);
    s.count = h.count();
    s.sum_ns = h.sum_ns();
    for (int i = 0; i < Histogram::kBuckets; ++i) s.buckets[i] = h.bucket(i);
    return s;
}

TEST(Histogram, PercentileInterpolatesDeterministically) {
    // One bucket, fully specified: the estimator's linear interpolation
    // inside [lo, hi) is an exact, documented function.
    HistogramSnapshot s;
    s.count = 100;
    s.buckets[10] = 100;  // [1024, 2048) ns
    // rank = 0.5 * 100 = 50; frac = 50/100; 1024 + 1024 * 0.5 = 1536 ns.
    EXPECT_NEAR(s.percentile(0.5), 1536e-9, 1e-15);
    EXPECT_NEAR(s.percentile(1.0), 2048e-9, 1e-15);
    EXPECT_NEAR(s.percentile(0.0), 1024e-9, 1e-15);

    // Two buckets: the second starts where the first's count ends.
    HistogramSnapshot t;
    t.count = 10;
    t.buckets[4] = 9;   // [16, 32)
    t.buckets[20] = 1;  // [2^20, 2^21)
    // rank(0.5) = 5 falls in the first bucket.
    EXPECT_LT(t.percentile(0.5), 32e-9);
    // rank(0.999) = 9.99 falls in the second.
    EXPECT_GE(t.percentile(0.999), (double)(u64{1} << 20) / 1e9);

    EXPECT_EQ(HistogramSnapshot{}.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileTracksExactReferenceWithinOneOctave) {
    // Log2 buckets cannot distinguish values inside one octave, so the
    // estimator's error bound is a factor of two of the true quantile.
    Histogram h;
    std::vector<u64> ref;
    Xoshiro256 rng(99);
    for (int i = 0; i < 5000; ++i) {
        const u64 ns = 100 + rng.below(1'000'000);
        ref.push_back(ns);
        h.observe_ns(ns);
    }
    std::sort(ref.begin(), ref.end());
    const auto s = snap_of(h);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = static_cast<double>(
            ref[std::min(ref.size() - 1,
                         static_cast<std::size_t>(q * ref.size()))]);
        const double est = s.percentile(q) * 1e9;
        EXPECT_GE(est, exact / 2.0) << "q=" << q;
        EXPECT_LE(est, exact * 2.0) << "q=" << q;
    }
}

TEST(Registry, GetOrCreateReturnsStableRefs) {
    MetricsRegistry reg;
    Histogram& h1 = reg.histogram("lat");
    Histogram& h2 = reg.histogram("lat");
    EXPECT_EQ(&h1, &h2);
}

TEST(Registry, CallbackMetricsPollAndRebindReplaces) {
    MetricsRegistry reg;
    reg.register_callback("poll_total", MetricKind::counter, [] { return 7; });
    reg.register_callback("level", MetricKind::gauge, [] { return 42; });
    auto s1 = reg.snapshot();
    ASSERT_NE(s1.find("poll_total"), nullptr);
    EXPECT_EQ(*s1.find("poll_total"), 7u);
    EXPECT_EQ(*s1.find("level"), 42u);

    // Re-registering a name replaces the callback (a re-attached component
    // takes over its names) — no duplicates, new value wins.
    reg.register_callback("poll_total", MetricKind::counter,
                          [] { return 9; });
    auto s2 = reg.snapshot();
    EXPECT_EQ(*s2.find("poll_total"), 9u);
    std::size_t hits = 0;
    for (const auto& [n, v] : s2.counters) hits += n == "poll_total";
    EXPECT_EQ(hits, 1u);
}

TEST(Registry, SnapshotConsistentUnderConcurrentWriters) {
    MetricsRegistry reg;
    std::atomic<u64> events{0};
    reg.register_callback("events_total", MetricKind::counter, [&events] {
        return events.load(std::memory_order_relaxed);
    });
    Histogram& h = reg.histogram("lat");
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&, t] {
            u64 x = 12345 + static_cast<u64>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                events.fetch_add(1, std::memory_order_relaxed);
                x = x * 2862933555777941757ull + 3037000493ull;
                h.observe_ns(x % 1000000);
            }
        });
    u64 last_count = 0, last_events = 0;
    for (int i = 0; i < 200; ++i) {
        auto s = reg.snapshot();
        const u64 events = *s.find("events_total");
        const auto* hs = s.find_histogram("lat");
        ASSERT_NE(hs, nullptr);
        // Monotonicity across snapshots; within one snapshot the bucket sum
        // never runs behind count: observe bumps buckets before count, and
        // the snapshot reads count before buckets.
        EXPECT_GE(events, last_events);
        EXPECT_GE(hs->count, last_count);
        u64 bucket_sum = 0;
        for (u64 b : hs->buckets) bucket_sum += b;
        EXPECT_GE(bucket_sum, hs->count);
        last_events = events;
        last_count = hs->count;
        // Percentiles never crash or return garbage mid-race.
        EXPECT_GE(hs->percentile(0.999), 0.0);
    }
    stop = true;
    for (auto& w : writers) w.join();
}

TraceRecord rec_of(double seconds, bool failed = false) {
    TraceRecord r;
    r.id = next_trace_id();
    r.op = "serve";
    r.asset = "a";
    r.failed = failed;
    r.total_seconds = seconds;
    return r;
}

TEST(SlowRequestLog, KeepsTheSlowestAndExposesThemSorted) {
    SlowRequestLog log(4, 4);
    for (int i = 1; i <= 10; ++i)
        log.record(rec_of(i * 1e-3));  // 1ms .. 10ms
    auto slow = log.slowest();
    ASSERT_EQ(slow.size(), 4u);
    EXPECT_NEAR(slow[0].total_seconds, 10e-3, 1e-9);
    EXPECT_NEAR(slow[3].total_seconds, 7e-3, 1e-9);
    // Once full, the floor rejects obviously-fast requests lock-free.
    EXPECT_FALSE(log.interesting(1e-3, false));
    EXPECT_TRUE(log.interesting(20e-3, false));
    // A record at or below the floor leaves the set unchanged.
    log.record(rec_of(1e-3));
    EXPECT_EQ(log.slowest().size(), 4u);
    EXPECT_NEAR(log.slowest()[3].total_seconds, 7e-3, 1e-9);
}

TEST(SlowRequestLog, FailuresGoToTheirOwnBoundedRing) {
    SlowRequestLog log(2, 3);
    for (int i = 0; i < 5; ++i) {
        auto r = rec_of(1e-6, true);
        r.code = static_cast<u16>(i);
        log.record(std::move(r));
    }
    // Failures never displace the slow set...
    EXPECT_TRUE(log.slowest().empty());
    // ...and retention is most-recent-N.
    auto failures = log.recent_failures();
    ASSERT_EQ(failures.size(), 3u);
    EXPECT_EQ(failures[0].code, 4u);
    EXPECT_EQ(failures[2].code, 2u);
    // Failures are always interesting, regardless of the slow floor.
    EXPECT_TRUE(log.interesting(0.0, true));
    EXPECT_EQ(log.recorded(), 5u);
}

TEST(Trace, SpansRecordNamesDepthsAndNesting) {
    TraceContext t("serve", "asset");
    ASSERT_TRUE(t.active());
    EXPECT_NE(t.id(), 0u);
    {
        auto outer = t.span("prepare");
        auto inner = t.span("cache_lookup");
    }
    auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    // Inner closes first; depths record the nesting.
    EXPECT_STREQ(spans[0].name, "cache_lookup");
    EXPECT_EQ(spans[0].depth, 1);
    EXPECT_STREQ(spans[1].name, "prepare");
    EXPECT_EQ(spans[1].depth, 0);
    EXPECT_GE(spans[0].start_seconds, spans[1].start_seconds);
    EXPECT_GE(spans[1].duration_seconds, spans[0].duration_seconds);
}

TEST(Trace, InactiveContextRecordsNothingAndCapsAtMaxSpans) {
    TraceContext inactive;
    EXPECT_FALSE(inactive.active());
    {
        Histogram h;
        auto s = inactive.span("prepare", &h);
        // An inactive trace is a full no-op: not even the histogram fires
        // (that is what makes request sampling free).
        EXPECT_EQ(h.count(), 0u);
    }
    EXPECT_TRUE(inactive.spans().empty());

    TraceContext t("serve", "a");
    for (int i = 0; i < TraceContext::kMaxSpans + 3; ++i) t.span("p");
    EXPECT_EQ(t.spans().size(),
              static_cast<std::size_t>(TraceContext::kMaxSpans));
}

TEST(Trace, IdsAreProcessWideUnique) {
    const u64 a = next_trace_id();
    const u64 b = next_trace_id();
    EXPECT_NE(a, 0u);
    EXPECT_LT(a, b);
}

}  // namespace
}  // namespace recoil::obs

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

/// Every name the telemetry layer promises (docs/observability.md). CI greps
/// the same list out of a live --metrics-json dump; this test pins it at the
/// unit level so a silent rename fails fast and locally.
const char* const kFrozenScalars[] = {
    "serve_requests_total", "serve_failures_total", "serve_cache_hits_total",
    "serve_range_requests_total", "serve_streamed_requests_total",
    "serve_wire_bytes_total", "serve_coalesced_requests_total",
    "serve_bytes_saved_total", "serve_governance_failures_total",
    "serve_coalescing_waiters",
    "cache_hits_total", "cache_misses_total", "cache_hit_bytes_total",
    "cache_insertions_total", "cache_evictions_total", "cache_rejected_total",
    "cache_peak_bytes", "cache_bytes", "cache_entries", "cache_capacity_bytes",
    "governor_budget_bytes", "governor_cache_bytes",
    "governor_resident_bytes", "governor_enforcements_total",
    "governor_unloads_total", "governor_bytes_unloaded_total",
    "governor_cache_shrinks_total", "governor_skipped_in_use_total",
    "store_resident_bytes", "store_assets",
    "disk_puts_total", "disk_put_bytes_total", "disk_loads_total",
    "disk_load_bytes_total", "disk_removes_total", "disk_assets",
    "simd_backend",
};
const char* const kFrozenHistograms[] = {
    "serve_request_seconds", "serve_prepare_seconds", "serve_decode_seconds",
    "serve_hit_seconds", "serve_combine_seconds", "stream_frame_seconds",
    "governor_pass_seconds",
};

struct ObsServerFixture : ::testing::Test {
    std::vector<u8> data;
    ContentServer server;
    std::shared_ptr<const Asset> asset;

    ObsServerFixture()
        : data(test::geometric_symbols<u8>(20000, 0.6, 256, 11)),
          asset(server.store().encode_bytes("asset", data, 32)) {}
};

TEST_F(ObsServerFixture, OneSnapshotCoversAllFourSubsystems) {
    const fs::path dir =
        fs::temp_directory_path() / "recoil_obs_snapshot_test";
    fs::remove_all(dir);
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    server.store().encode_bytes("persisted", data, 8);  // disk write-through
    server.serve(ServeRequest{"asset", 8, std::nullopt});  // cold miss
    server.serve(ServeRequest{"asset", 8, std::nullopt});  // warm hit

    const auto snap = server.metrics().snapshot();
    for (const char* name : kFrozenScalars)
        EXPECT_NE(snap.find(name), nullptr) << "missing metric " << name;
    for (const char* name : kFrozenHistograms)
        EXPECT_NE(snap.find_histogram(name), nullptr)
            << "missing histogram " << name;

    // Registry view and stats() APIs are the same counters, bit-exact.
    const auto totals = server.totals();
    EXPECT_EQ(*snap.find("serve_requests_total"), totals.requests);
    EXPECT_EQ(*snap.find("serve_cache_hits_total"), totals.cache_hits);
    EXPECT_EQ(*snap.find("cache_hits_total"), server.cache().stats().hits);
    EXPECT_EQ(*snap.find("store_assets"), server.store().size());
    EXPECT_GE(*snap.find("disk_puts_total"), 1u);

    // Both exposition formats render every frozen name.
    const std::string prom = snap.to_prometheus();
    const std::string json = snap.to_json();
    for (const char* name : kFrozenScalars) {
        EXPECT_NE(prom.find(name), std::string::npos) << name;
        EXPECT_NE(json.find(name), std::string::npos) << name;
    }
    fs::remove_all(dir);
}

TEST_F(ObsServerFixture, TracesLandInTheSlowLogWithSpans) {
    server.serve(ServeRequest{"asset", 16, std::nullopt});  // cold: combine
    server.serve(ServeRequest{"asset", 16, std::nullopt});  // warm hit
    server.serve(ServeRequest{"missing", 4, std::nullopt});  // typed failure

    // Streamed request, drained to FIN.
    auto stream = server.serve_stream(
        ServeRequest{"asset", 16, std::nullopt, kAcceptAll | kAcceptStreamed});
    while (stream.next_frame()) {
    }

    const auto slow = server.slow_log().slowest();
    ASSERT_FALSE(slow.empty());
    bool saw_serve = false, saw_stream = false, saw_hit = false;
    for (const auto& r : slow) {
        if (r.op == "serve") {
            saw_serve = true;
            saw_hit = saw_hit || r.cache_hit;
            EXPECT_FALSE(r.spans.empty());
            bool has_prepare = false;
            for (const auto& s : r.spans)
                has_prepare = has_prepare || std::string(s.name) == "prepare";
            EXPECT_TRUE(has_prepare);
        }
        if (r.op == "stream") saw_stream = true;
        EXPECT_FALSE(r.failed);  // failures live in their own ring
    }
    EXPECT_TRUE(saw_serve);
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_hit);

    const auto failures = server.slow_log().recent_failures();
    ASSERT_FALSE(failures.empty());
    EXPECT_EQ(failures[0].code_name, "unknown_asset");
    EXPECT_EQ(failures[0].asset, "missing");
    EXPECT_TRUE(failures[0].failed);

    // The JSON dump carries both sets with spans inline.
    const std::string j = server.slow_log().to_json();
    EXPECT_NE(j.find("\"slowest\""), std::string::npos);
    EXPECT_NE(j.find("\"failures\""), std::string::npos);
    EXPECT_NE(j.find("\"prepare\""), std::string::npos);
    EXPECT_NE(j.find("unknown_asset"), std::string::npos);
}

TEST_F(ObsServerFixture, MetricsIntrospectionSpeaksTheWireProtocol) {
    server.serve(ServeRequest{"asset", 8, std::nullopt});
    const auto before = server.totals().requests;

    // Prometheus text over the wire.
    auto res = decode_response(*server.serve_frame(encode_request(
        ServeRequest{kMetricsAssetText, 1, std::nullopt,
                     kAcceptAll | kAcceptMetrics})).next_frame());
    ASSERT_TRUE(res.ok()) << res.detail;
    EXPECT_EQ(res.payload, PayloadKind::metrics);
    ASSERT_NE(res.wire, nullptr);
    const std::string text(res.wire->begin(), res.wire->end());
    EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("serve_request_seconds_count"), std::string::npos);

    // JSON variant.
    auto jres = decode_response(*server.serve_frame(encode_request(
        ServeRequest{kMetricsAssetJson, 1, std::nullopt,
                     kAcceptAll | kAcceptMetrics})).next_frame());
    ASSERT_TRUE(jres.ok());
    const std::string json(jres.wire->begin(), jres.wire->end());
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);

    // Introspection requests are requests: they count.
    EXPECT_EQ(server.totals().requests, before + 2);

    // Without the metrics accept bit the reserved name is not served.
    auto denied = decode_response(*server.serve_frame(encode_request(
        ServeRequest{kMetricsAssetText, 1, std::nullopt, kAcceptAll})).next_frame());
    EXPECT_EQ(denied.code, ErrorCode::not_acceptable);

    // Unknown "!" names fail typed, and never hit the store.
    auto unknown = decode_response(*server.serve_frame(encode_request(
        ServeRequest{"!nope", 1, std::nullopt,
                     kAcceptAll | kAcceptMetrics})).next_frame());
    EXPECT_EQ(unknown.code, ErrorCode::unknown_asset);
}

TEST(ObsServer, TelemetryDisabledKeepsCountersExactAndRecordsNoTraces) {
    ServerOptions opt;
    opt.sample_every = 0;
    ContentServer server(opt);
    auto data = test::geometric_symbols<u8>(8000, 0.6, 256, 5);
    server.store().encode_bytes("asset", data, 8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(server.serve(ServeRequest{"asset", 4, std::nullopt}).ok());

    const auto snap = server.metrics().snapshot();
    ASSERT_NE(snap.find("serve_requests_total"), nullptr);
    EXPECT_EQ(*snap.find("serve_requests_total"), 5u);
    EXPECT_EQ(*snap.find("serve_cache_hits_total"), 4u);
    // No histograms were created and nothing was traced.
    EXPECT_EQ(snap.find_histogram("serve_request_seconds"), nullptr);
    EXPECT_EQ(server.slow_log().recorded(), 0u);
}

TEST(ObsServer, SamplingTakesTheTimedPathOneInN) {
    ServerOptions opt;
    opt.sample_every = 4;
    ContentServer server(opt);
    auto data = test::geometric_symbols<u8>(8000, 0.6, 256, 5);
    server.store().encode_bytes("asset", data, 8);
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(server.serve(ServeRequest{"asset", 4, std::nullopt}).ok());

    const auto snap = server.metrics().snapshot();
    // Single-threaded, ticks 0..15: exactly ticks 0, 4, 8, 12 sampled.
    const auto* h = snap.find_histogram("serve_request_seconds");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 4u);
    // Counters are never sampled.
    EXPECT_EQ(*snap.find("serve_requests_total"), 16u);
}

// Pins the counter lifetimes documented in docs/serve_cache.md: traffic
// counters are cumulative over the cache's lifetime (clear() and eviction do
// NOT reset them); bytes/entries describe current contents and peak_bytes
// is a lifetime high-water mark.
TEST(CacheStatsLifetime, CumulativeCountersSurviveClear) {
    MetadataCache cache(1 << 20);
    auto wire = [](std::size_t n, u32 splits) {
        return std::make_shared<const FinishedResponse>(
            std::vector<u8>(n, u8{7}), splits);
    };
    cache.get(test::cache_key("a", 4));                 // miss
    cache.put(test::cache_key("a", 4), wire(1000, 4));  // insertion
    cache.get(test::cache_key("a", 4));                 // hit, +1000 hit bytes
    // Larger than capacity: rejected.
    cache.put(test::cache_key("big", 1), wire(2 << 20, 1));

    auto s1 = cache.stats();
    EXPECT_EQ(s1.hits, 1u);
    EXPECT_EQ(s1.misses, 1u);
    EXPECT_EQ(s1.hit_bytes, 1000u);
    EXPECT_EQ(s1.insertions, 1u);
    EXPECT_EQ(s1.rejected, 1u);
    EXPECT_EQ(s1.entries, 1u);
    EXPECT_EQ(s1.bytes, 1000u);
    EXPECT_EQ(s1.peak_bytes, 1000u);

    cache.clear();
    auto s2 = cache.stats();
    // Current-contents gauges reset...
    EXPECT_EQ(s2.entries, 0u);
    EXPECT_EQ(s2.bytes, 0u);
    // ...cumulative counters and the high-water mark do not.
    EXPECT_EQ(s2.hits, 1u);
    EXPECT_EQ(s2.misses, 1u);
    EXPECT_EQ(s2.hit_bytes, 1000u);
    EXPECT_EQ(s2.insertions, 1u);
    EXPECT_EQ(s2.rejected, 1u);
    EXPECT_EQ(s2.evictions, 0u);
    EXPECT_EQ(s2.peak_bytes, 1000u);
    // The contents are gone: a cleared key misses.
    EXPECT_EQ(cache.get(test::cache_key("a", 4)), nullptr);

    // Eviction bumps its own cumulative counter and never rewinds others.
    MetadataCache tiny(1500);
    tiny.put(test::cache_key("x", 1), wire(1000, 1));
    tiny.put(test::cache_key("y", 1), wire(1000, 1));  // displaces x
    auto s3 = tiny.stats();
    EXPECT_EQ(s3.evictions, 1u);
    EXPECT_EQ(s3.insertions, 2u);
    EXPECT_EQ(s3.entries, 1u);
}

}  // namespace
}  // namespace recoil::serve
