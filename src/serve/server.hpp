#pragma once
// Front door of the serve subsystem: ContentServer resolves requests against
// the AssetStore, adapts split metadata per client (§3.3) through the LRU
// wire cache, and serves symbol sub-ranges via the range wire. Failures are
// typed (protocol.hpp ErrorCode), never thrown. Concurrent cold requests for
// the same response are single-flighted: one combine runs, everyone shares
// the resulting wire. serve_frame() is the transport boundary — opaque
// request frame in, the reply's frames out — so a network frontend needs
// no knowledge of requests, assets or caching.
//
// serve_stream() answers the same request as a v2 stream: it takes the
// finished response on serve()'s own path (cache, single flight, stale-put
// gate) — a piece list of owned structural sections and borrowed payload
// views — and hands back a ServeStream that only walks those finished
// bytes. Streaming changes the framing, never the bytes or how they are
// made.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/asset_store.hpp"
#include "serve/governor.hpp"
#include "serve/metadata_cache.hpp"
#include "serve/protocol.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::serve {

struct ServerOptions {
    u64 cache_capacity_bytes = u64{256} << 20;
    /// Global memory budget over cache bytes + resident store bytes; when
    /// exceeded, the resource governor unloads cold demand-loadable assets
    /// (and shrinks the cache if that is not enough). 0 disables.
    u64 mem_budget_bytes = 0;
    /// Observability/test hook: invoked (if set) with the asset's name at
    /// the start of every miss combine (materialized or streamed), before
    /// the wire is built.
    std::function<void(const std::string&)> combine_hook;
    /// Take the TIMED telemetry path (trace spans, per-phase histograms,
    /// slow-log consideration) for 1 of every N requests. 1 (default) =
    /// full fidelity: every request is traced, at an absolute cost of a few
    /// clock reads (~150 ns) per request — negligible unless warm hits are
    /// themselves sub-microsecond. For that in-process regime set 32+: the
    /// amortized cost drops under the 2% warm-hit budget bench_serve
    /// enforces, histograms/slow-log then describe the sampled subset, and
    /// every counter/gauge stays exact (they are never sampled). 0 = never:
    /// no histogram is created, nothing is traced and the slow-request log
    /// records nothing (the baseline bench_serve measures overhead
    /// against); the metrics REGISTRY stays live either way — counters and
    /// gauges are polled callbacks over stats the server maintains
    /// regardless, so snapshots keep working.
    u32 sample_every = 1;
    /// Body-frame payload size of every stream this server sends; at least
    /// 8 (a frame holds a whole trailer). The serializer's one pass builds
    /// each response's frame checksums at this size, so a stream from the
    /// wire's first byte frames without hashing.
    u64 max_frame_bytes = kDefaultMaxFrameBytes;
};

class ContentServer;

/// The reply to one request, pulled one protocol frame at a time: a v2
/// stream (header frame, body frames, FIN frame) or a single v1 response
/// frame (reply()), then nullopt. A v2 stream's response is finished before
/// the stream exists, so next_frame() never waits: each body frame is the
/// next max-frame-size slice of the immutable wire, encoded straight from
/// the pieces it spans, and resuming is a seek. From the wire's first byte
/// the frames reuse the response's held frame checksums; only a resumed
/// stream hashes its frames. The stream holds the response (and so every
/// buffer its pieces view) and pins its asset, so unload()/evict()
/// mid-stream never invalidates it. Must not outlive the ContentServer that
/// created it.
class ServeStream {
public:
    ServeStream(ServeStream&&) noexcept = default;
    ServeStream& operator=(ServeStream&&) noexcept = default;
    ServeStream(const ServeStream&) = delete;
    ServeStream& operator=(const ServeStream&) = delete;

    /// A reply of one v1 response frame carrying `res`.
    static ServeStream reply(const ServeResult& res) noexcept;

    /// Status and totals (wire_bytes, splits_served, cache_hit, coalesced);
    /// `wire` is always null.
    const ServeResult& head() const noexcept { return head_; }
    /// The next protocol frame, or nullopt once the stream is complete. An
    /// error response is a single header frame.
    std::optional<std::vector<u8>> next_frame();
    bool done() const noexcept { return phase_ == Phase::finished; }
    /// True for a v2 stream, false for a single v1 response frame.
    bool streamed() const noexcept { return server_ != nullptr; }
    u64 frames_emitted() const noexcept { return frames_; }
    /// Owned bytes the stream holds: its response's owned structural
    /// pieces plus the largest body frame it built (a reply(): its one
    /// frame). Payload views of the asset's storage cost no new memory and
    /// are excluded; this is the number the bench compares against wire
    /// size.
    u64 peak_owned_bytes() const noexcept {
        return (response_ != nullptr ? response_->owned_bytes() : 0) +
               max_body_;
    }

private:
    friend class ContentServer;
    ServeStream() = default;

    enum class Phase : u8 { reply, header, body, finished };
    /// Where a v2 stream records its trace at the end; null for a reply().
    ContentServer* server_ = nullptr;
    ServeResult head_;
    std::vector<u8> reply_;  ///< a reply()'s one v1 frame
    std::shared_ptr<const Asset> asset_;  ///< pinned for the stream's life
    SharedResponse response_;  ///< the finished wire
    /// Held checksums of exactly the frames this stream emits (see
    /// FinishedResponse::frame_sums), kept alive by response_; empty for a
    /// resumed stream, whose frames are hashed as they are built.
    std::span<const u64> sums_;
    u64 max_frame_ = kDefaultMaxFrameBytes;
    u64 max_body_ = 0;
    u64 left_ = 0;           ///< wire bytes not yet framed
    std::size_t piece_ = 0;  ///< cursor: piece index and offset within it
    std::size_t off_ = 0;
    u32 seq_ = 0;
    u64 frames_ = 0;
    Phase phase_ = Phase::header;
    obs::TraceContext trace_;  ///< inactive unless this request is sampled
    obs::Histogram* h_frame_ = nullptr;  ///< stream_frame_seconds (or null)
};

namespace detail {

/// In-flight combine shared by coalesced requests for one response key,
/// streamed or not. Failures are published as a typed (code, detail) pair,
/// NOT a shared exception_ptr: rethrowing one exception object from many
/// followers lets one thread's catch-scope destruction race another's
/// what() read (caught by TSan). Each follower throws its own
/// ProtocolError built from the immutable-after-done fields.
struct Flight {
    util::Mutex mu;
    util::CondVar cv;
    bool done RECOIL_GUARDED_BY(mu) = false;
    SharedResponse response RECOIL_GUARDED_BY(mu);
    bool failed RECOIL_GUARDED_BY(mu) = false;
    ErrorCode error_code RECOIL_GUARDED_BY(mu) = ErrorCode::internal;
    std::string error_detail RECOIL_GUARDED_BY(mu);
};

}  // namespace detail

class ContentServer {
public:
    explicit ContentServer(ServerOptions opt = {});

    AssetStore& store() noexcept { return store_; }
    MetadataCache& cache() noexcept { return cache_; }
    /// The resource governor over this server's store + cache (disabled —
    /// never unloading — unless ServerOptions::mem_budget_bytes is set).
    ResourceGovernor& governor() noexcept { return governor_; }
    /// Unified telemetry directory: one snapshot() covers all four serve
    /// subsystems (server totals, cache, governor, stores) plus the
    /// per-phase latency histograms. Always live — see
    /// ServerOptions::sample_every for what sampling does and does not gate.
    obs::MetricsRegistry& metrics() noexcept { return metrics_; }
    /// The N slowest and N most recent failed requests, as structured trace
    /// events (populated only while ServerOptions::sample_every is not 0).
    const obs::SlowRequestLog& slow_log() const noexcept { return slow_log_; }

    /// Serve one request. Never throws: failures come back as a typed
    /// ErrorCode, so scheduler workers cannot tear down their pool. Assets
    /// not resident in memory are demand-loaded from the attached backing
    /// store (AssetStore::resolve) as zero-copy views of the mapped master.
    ServeResult serve(const ServeRequest& req) noexcept;

    /// Serve one request as a pull-based stream of v2 frames. Requires the
    /// request to accept the streamed framing (kAcceptStreamed), on top of
    /// the payload form it would need for serve(). Never throws; failures
    /// are a single typed header frame. The response is finished before
    /// this returns: streams share serve()'s cache and single flight (a
    /// cold stream combines or waits for the finished wire like any v1
    /// request). ServeRequest::resume_offset seeks past the bytes a
    /// reconnecting client already holds; an offset past the wire is
    /// bad_request.
    ServeStream serve_stream(const ServeRequest& req) noexcept;

    /// The transport entry: decode one request frame, once, and answer it.
    /// A request that accepts the streamed framing (kAcceptStreamed) and
    /// names store content gets serve_stream()'s v2 frames; everything else
    /// gets one v1 response frame: a plain v1 request, "!metrics"
    /// introspection (answered from this server's registry), and a frame
    /// that does not decode (its typed error). Never throws.
    ServeStream serve_frame(std::span<const u8> request_frame) noexcept;

    /// Requests currently parked on another request's in-flight combine.
    u64 coalescing_waiters() const noexcept {
        return waiters_.load(std::memory_order_relaxed);
    }

    struct Totals {
        u64 requests = 0;
        u64 failures = 0;
        u64 cache_hits = 0;
        u64 range_requests = 0;
        u64 streamed_requests = 0;  ///< served through serve_stream
        u64 wire_bytes = 0;
        /// Requests served by waiting on an in-flight combine (single-flight
        /// coalescing): N concurrent cold misses run N-1 fewer combines.
        u64 coalesced_requests = 0;
        /// Wire bytes delivered from shared buffers (cache hits + coalesced)
        /// rather than freshly combined — work the protocol design saved.
        u64 bytes_saved = 0;
        /// Governance passes that threw (swallowed so the serve path
        /// lives). Nonzero means pressure relief is failing — investigate.
        u64 governance_failures = 0;
    };
    Totals totals() const noexcept;

private:
    friend class ServeStream;    // FIN-time trace recording
    friend class ShardedServer;  // answers undecodable frames via reject()
    using Flight = detail::Flight;

    /// serve_frame's answer to a frame that does not decode: a failed
    /// request, replied to with its typed v1 error frame.
    ServeStream reject(ErrorCode code, std::string detail) noexcept;

    /// A validated request, ready to produce: shared by the materializing
    /// and streaming paths so negotiation/validation cannot diverge.
    struct Prepared {
        std::shared_ptr<const Asset> asset;
        /// Cache and flight key: the clamped parallelism, or the range.
        ResponseKey key;
        PayloadKind payload = PayloadKind::none;
    };
    /// Resolve + validate + negotiate. Throws ProtocolError (typed) on any
    /// failure; counts the request in range_requests_ when applicable.
    Prepared prepare(const ServeRequest& req);
    /// The miss path's combine: fire combine_hook, then run the prepared
    /// production into `sink` under the "combine" span (`trace` may be
    /// null) and record its time in `stats`. Returns splits carried.
    u32 produce(const Prepared& p, format::WireSink& sink, ServeStats& stats,
                obs::TraceContext* trace);

    ServeResult serve_impl(const ServeRequest& req, obs::TraceContext& trace);
    /// Cache lookup + single-flight combine for one response key. After
    /// the combine the response enters the cache only while `p.asset` is
    /// still the resident asset under its name: an entry views that
    /// instance's payload, which the budget counts only while it is
    /// resident (the stale-put gate). `trace` may be null (not sampled):
    /// spans are then skipped but behavior is identical.
    SharedResponse serve_shared(const Prepared& p, ServeStats& stats,
                                obs::TraceContext* trace);
    /// Insert-or-join the flight for `key`. True when this caller is the
    /// leader (it must eventually retire the flight).
    bool acquire_flight(const ResponseKey& key, std::shared_ptr<Flight>& flight)
        RECOIL_EXCLUDES(flights_mu_);
    /// Remove the flight from the map, publish its outcome (`response`
    /// when non-null, else the typed failure) and wake every parked
    /// follower. Every leader exit path must end here, or followers block
    /// forever on a stranded flight.
    void retire_flight(const ResponseKey& key,
                       const std::shared_ptr<Flight>& flight,
                       SharedResponse response, ErrorCode error_code,
                       std::string error_detail) RECOIL_EXCLUDES(flights_mu_);
    /// Run a governance pass if the global budget is exceeded. Called at
    /// the end of every serve and serve_stream — the moments usage can have
    /// grown (demand-load, cache put).
    void maybe_govern() noexcept;
    /// Count a swallowed governance error AND log it as a structured slow-
    /// log failure event with the typed code attached (op "governance").
    void note_governance_failure(u16 code, std::string code_name,
                                 std::string detail) noexcept;
    /// Register the serve_* callback metrics, bind the subsystems, and
    /// (sample_every not 0) create the per-phase histograms.
    void init_telemetry();
    /// True when the request holding requests_ tick `tick` should take the
    /// timed path (active trace + histograms): the 1-in-sample_every toss
    /// hits (never for 0). Piggybacks on the totals counter the serve path
    /// bumps anyway — sampling adds zero extra atomics — and power-of-two
    /// rates (the sane choices) go through a divide-free mask.
    bool sample_tick(u64 tick) const noexcept {
        if (opt_.sample_every <= 1) return opt_.sample_every == 1;
        if (sample_mask_ != 0) return (tick & sample_mask_) == 0;
        return tick % opt_.sample_every == 0;
    }
    /// Count a finished serve() or opened serve_stream() in the totals.
    void count_outcome(const ServeResult& res) noexcept;
    /// Record a finished request — a serve(), or a stream at its FIN or
    /// error header — into the slow-request log when it qualifies (slow
    /// enough, or failed).
    void finish_trace(const obs::TraceContext& trace, const ServeResult& res,
                      double total_seconds);
    ServerOptions opt_;
    AssetStore store_;
    MetadataCache cache_;
    ResourceGovernor governor_;
    util::Mutex flights_mu_;
    std::unordered_map<ResponseKey, std::shared_ptr<Flight>, ResponseKey::Hash>
        flights_ RECOIL_GUARDED_BY(flights_mu_);
    /// The totals block below is all relaxed atomics — the documented
    /// lock-free escape for the serve hot path (totals()/sampling/metrics
    /// callbacks read them without any lock).
    std::atomic<u64> waiters_{0};
    std::atomic<u64> requests_{0};
    std::atomic<u64> failures_{0};
    std::atomic<u64> cache_hits_{0};
    std::atomic<u64> range_requests_{0};
    std::atomic<u64> streamed_requests_{0};
    std::atomic<u64> wire_bytes_{0};
    std::atomic<u64> coalesced_{0};
    std::atomic<u64> bytes_saved_{0};
    std::atomic<u64> governance_failures_{0};
    u64 sample_mask_ = 0;  ///< sample_every-1 when a power of two, else 0
    obs::MetricsRegistry metrics_;
    obs::SlowRequestLog slow_log_;
    /// Per-phase histograms, created by init_telemetry() unless
    /// ServerOptions::sample_every is 0; null then, and every recording
    /// site checks — the whole hot-path cost of the off state is a few
    /// null tests.
    obs::Histogram* h_request_ = nullptr;  ///< serve_request_seconds
    obs::Histogram* h_prepare_ = nullptr;  ///< serve_prepare_seconds
    obs::Histogram* h_decode_ = nullptr;   ///< serve_decode_seconds
    obs::Histogram* h_hit_ = nullptr;      ///< serve_hit_seconds
    obs::Histogram* h_combine_ = nullptr;  ///< serve_combine_seconds
    obs::Histogram* h_frame_ = nullptr;    ///< stream_frame_seconds
    obs::Histogram* h_govern_ = nullptr;   ///< governor_pass_seconds
};

/// Aggregate view of a set of results, for benches and logs.
struct BatchStats {
    u64 requests = 0;
    u64 failures = 0;
    u64 cache_hits = 0;
    u64 coalesced = 0;
    u64 wire_bytes = 0;
    double max_latency_seconds = 0;
    double sum_latency_seconds = 0;
};
BatchStats summarize(std::span<const ServeResult> results);

/// A reserved "!..." name: introspection, never store content (a leading
/// '!' is not a legal store name, so no real asset is shadowed).
inline bool is_introspection(const ServeRequest& req) noexcept {
    return !req.asset.empty() && req.asset[0] == '!';
}

/// Answer a "!metrics"/"!metrics.json" introspection request from `reg`:
/// ContentServer from its own registry, ShardedServer from the router's.
/// Requires kAcceptMetrics; anything else is a typed error, never a throw.
ServeResult serve_introspection(const obs::MetricsRegistry& reg,
                                const ServeRequest& req) noexcept;

}  // namespace recoil::serve
