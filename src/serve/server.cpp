#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "simd/dispatch.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace recoil::serve {

namespace {

/// Cache keys embed the asset's store generation, so replacing an asset
/// under the same name orphans the predecessor's entries instead of serving
/// its bytes; the orphans age out through normal LRU eviction. Both forms
/// start with "name\n", which is what erase_asset() prefix-matches.
std::string asset_key(const Asset& a) {
    return a.name() + "\n#" + std::to_string(a.uid());
}

std::string range_key(const Asset& a, u64 lo, u64 hi) {
    return asset_key(a) + "\nrange:" + std::to_string(lo) + "-" +
           std::to_string(hi);
}

ServeResult fail(ErrorCode code, std::string detail) {
    ServeResult res;
    res.code = code;
    res.detail = std::move(detail);
    return res;
}

WireBytes share(std::vector<u8> bytes) {
    return std::make_shared<const std::vector<u8>>(std::move(bytes));
}

/// Keeps a produced wire as the pieces its serializer emitted — owned
/// structural sections and borrowed payload views — instead of gathering
/// them, so an uncached stream owns only the structural bytes.
class PieceSink final : public format::WireSink {
public:
    std::vector<format::ByteBuffer> pieces;

private:
    void keep(format::ByteBuffer piece) override {
        if (!piece.empty()) pieces.push_back(std::move(piece));
    }
};

/// Whole-wire FNV of a sealed wire held as pieces: gathers the trailer (the
/// last 8 bytes, wherever the pieces split them) for sealed_fnv1a.
u64 sealed_digest(const std::vector<format::ByteBuffer>& pieces) {
    std::array<u8, 8> tail{};
    std::size_t need = tail.size();
    for (auto it = pieces.rbegin(); it != pieces.rend() && need > 0; ++it) {
        const std::size_t n = std::min(need, it->size());
        need -= n;
        std::copy(it->end() - n, it->end(), tail.begin() + need);
    }
    RECOIL_CHECK(need == 0, "stream: wire shorter than its trailer");
    return format::sealed_fnv1a(tail);
}

}  // namespace

// ---- ServeStream ----

std::optional<std::vector<u8>> ServeStream::next_frame() {
    if (phase_ == Phase::finished) return std::nullopt;
    // The wire is finished, so this is framing only: stream_frame_seconds
    // is the whole per-frame cost.
    Stopwatch frame_clock;
    std::vector<u8> frame;
    if (phase_ == Phase::header) {
        StreamHeader h;
        h.code = head_.code;
        h.detail = head_.detail;
        h.payload = head_.payload;
        h.cache_hit = head_.stats.cache_hit;
        h.coalesced = head_.stats.coalesced;
        h.splits = head_.stats.splits_served;
        h.wire_bytes = head_.stats.wire_bytes;
        h.max_frame_bytes = max_frame_;
        frame = encode_stream_header(h);
        // An error response is a single header frame: the stream ends here.
        phase_ = head_.ok() ? Phase::body : Phase::finished;
    } else if (piece_ < pieces_.size()) {
        const format::ByteBuffer& p = pieces_[piece_];
        const std::size_t n = static_cast<std::size_t>(
            std::min<u64>(max_frame_, p.size() - off_));
        const std::optional<u64> sum =
            seq_ < sums_.size() ? std::optional<u64>(sums_[seq_])
                                : std::nullopt;
        frame = encode_stream_body(
            seq_++, std::span<const u8>(p.data() + off_, n), max_frame_, sum);
        max_body_ = std::max<u64>(max_body_, n);
        off_ += n;
        if (off_ == p.size()) {
            ++piece_;
            off_ = 0;
        }
    } else {
        StreamFin fin;
        fin.code = ErrorCode::ok;
        fin.body_frames = seq_;
        fin.splits = head_.stats.splits_served;
        fin.wire_checksum = digest_;
        frame = encode_stream_fin(fin);
        phase_ = Phase::finished;
    }
    ++frames_;
    if (h_frame_ != nullptr) h_frame_->observe(frame_clock.seconds());
    if (phase_ == Phase::finished)
        server_->finish_trace(trace_, head_, trace_.elapsed());
    return frame;
}

// ---- ContentServer ----

ContentServer::ContentServer(ServerOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_capacity_bytes),
      governor_(store_, cache_, GovernorOptions{opt_.mem_budget_bytes}) {
    init_telemetry();
}

void ContentServer::init_telemetry() {
    using obs::MetricKind;
    // The serve totals as polled callbacks over the same atomics totals()
    // reads — registered regardless of the telemetry knob: polling costs
    // nothing until someone snapshots.
    const auto poll = [this](const std::atomic<u64>& v) {
        return [&v] { return v.load(std::memory_order_relaxed); };
    };
    metrics_.register_callback("serve_requests_total", MetricKind::counter,
                               poll(requests_));
    metrics_.register_callback("serve_failures_total", MetricKind::counter,
                               poll(failures_));
    metrics_.register_callback("serve_cache_hits_total", MetricKind::counter,
                               poll(cache_hits_));
    metrics_.register_callback("serve_range_requests_total",
                               MetricKind::counter, poll(range_requests_));
    metrics_.register_callback("serve_streamed_requests_total",
                               MetricKind::counter, poll(streamed_requests_));
    metrics_.register_callback("serve_wire_bytes_total", MetricKind::counter,
                               poll(wire_bytes_));
    metrics_.register_callback("serve_coalesced_requests_total",
                               MetricKind::counter, poll(coalesced_));
    metrics_.register_callback("serve_bytes_saved_total", MetricKind::counter,
                               poll(bytes_saved_));
    metrics_.register_callback("serve_governance_failures_total",
                               MetricKind::counter,
                               poll(governance_failures_));
    metrics_.register_callback("serve_coalescing_waiters", MetricKind::gauge,
                               poll(waiters_));
    // Which SIMD backend dispatch selected (0=scalar 1=avx2 2=avx512),
    // polled from the process-wide dispatch at snapshot time.
    metrics_.register_callback("simd_backend", MetricKind::gauge, [] {
        return static_cast<u64>(simd::pick_backend());
    });
    cache_.bind_metrics(&metrics_);
    governor_.bind_metrics(&metrics_);
    store_.bind_metrics(&metrics_);
    sample_mask_ =
        opt_.sample_every > 1 && std::has_single_bit(u64{opt_.sample_every})
            ? u64{opt_.sample_every} - 1
            : 0;
    if (!opt_.telemetry) return;
    h_request_ = &metrics_.histogram("serve_request_seconds");
    h_prepare_ = &metrics_.histogram("serve_prepare_seconds");
    h_decode_ = &metrics_.histogram("serve_decode_seconds");
    h_hit_ = &metrics_.histogram("serve_hit_seconds");
    h_combine_ = &metrics_.histogram("serve_combine_seconds");
    h_frame_ = &metrics_.histogram("stream_frame_seconds");
    h_govern_ = &metrics_.histogram("governor_pass_seconds");
}

ServeResult ContentServer::serve(const ServeRequest& req) noexcept {
    const u64 tick = requests_.fetch_add(1, std::memory_order_relaxed);
    obs::TraceContext trace = sample_tick(tick)
                                  ? obs::TraceContext("serve", req.asset)
                                  : obs::TraceContext();
    Stopwatch total;
    ServeResult res;
    try {
        res = serve_impl(req, trace);
    } catch (const ProtocolError& e) {
        res = fail(e.code(), e.what());
    } catch (const std::exception& e) {
        res = fail(ErrorCode::internal, e.what());
    }
    res.stats.total_seconds = total.seconds();
    // Histograms ride the sampling decision (trace.active()), so the
    // distributions describe exactly the sampled requests.
    if (trace.active() && h_request_ != nullptr)
        h_request_->observe(res.stats.total_seconds);
    if (trace.active() && h_hit_ != nullptr && res.ok() && res.stats.cache_hit)
        h_hit_->observe(res.stats.total_seconds);
    count_outcome(res);
    finish_trace(trace, res, res.stats.total_seconds);
    // The request may have demand-loaded an asset or grown the cache; if
    // the global budget is now exceeded, relieve the pressure before the
    // next request piles on.
    maybe_govern();
    return res;
}

void ContentServer::count_outcome(const ServeResult& res) noexcept {
    if (!res.ok()) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const u64 bytes = res.stats.wire_bytes;
    wire_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (res.stats.cache_hit) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        bytes_saved_.fetch_add(bytes, std::memory_order_relaxed);
    }
    if (res.stats.coalesced) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        bytes_saved_.fetch_add(bytes, std::memory_order_relaxed);
    }
}

void ContentServer::finish_trace(const obs::TraceContext& trace,
                                 const ServeResult& res,
                                 double total_seconds) {
    if (!trace.active()) return;
    const bool failed = !res.ok();
    if (!slow_log_.interesting(total_seconds, failed)) return;
    obs::TraceRecord rec;
    rec.id = trace.id();
    rec.op = trace.op();
    rec.asset = trace.asset();
    rec.failed = failed;
    rec.code = static_cast<u16>(res.code);
    rec.code_name = error_name(res.code);
    rec.detail = res.detail;
    rec.cache_hit = res.stats.cache_hit;
    rec.total_seconds = total_seconds;
    rec.wire_bytes = res.stats.wire_bytes;
    rec.spans = trace.spans();
    slow_log_.record(std::move(rec));
}

void ContentServer::maybe_govern() noexcept {
    try {
        // pressure_actionable (not just over_budget): when a pass already
        // proved it cannot relieve the pressure (all residents unbacked or
        // in use), re-running it per request would serialize the serve
        // path behind futile O(residents) scans.
        if (governor_.pressure_actionable()) {
            Stopwatch pass;
            governor_.enforce();
            if (h_govern_ != nullptr) h_govern_->observe(pass.seconds());
        }
    } catch (const ProtocolError& e) {
        note_governance_failure(static_cast<u16>(e.code()),
                                error_name(e.code()), e.what());
    } catch (const StoreError& e) {
        note_governance_failure(
            static_cast<u16>(e.status()),
            std::string("store:") + store_status_name(e.status()), e.what());
    } catch (const std::exception& e) {
        note_governance_failure(0, "exception", e.what());
    } catch (...) {
        note_governance_failure(0, "unknown", "governance pass failed");
    }
}

void ContentServer::note_governance_failure(u16 code, std::string code_name,
                                            std::string detail) noexcept {
    // Governance is best-effort relief; a failed pass (allocation
    // exhaustion under the very pressure it relieves, or a cache
    // invariant tripping) must not take a serve path down with it — but it
    // must not vanish either: the counter surfaces in Totals, and the slow
    // log keeps WHAT failed as a structured event with the typed code.
    governance_failures_.fetch_add(1, std::memory_order_relaxed);
    if (!opt_.telemetry) return;
    try {
        obs::TraceRecord rec;
        rec.id = obs::next_trace_id();
        rec.op = "governance";
        rec.failed = true;
        rec.code = code;
        rec.code_name = std::move(code_name);
        rec.detail = std::move(detail);
        slow_log_.record(std::move(rec));
    } catch (...) {
        // Telemetry must never finish what the governance failure started.
    }
}

ContentServer::Prepared ContentServer::prepare(const ServeRequest& req) {
    auto asset = store_.resolve(req.asset);
    if (asset == nullptr)
        throw ProtocolError(ErrorCode::unknown_asset,
                            "serve: unknown asset '" + req.asset + "'");
    governor_.note_access(req.asset);  // recency clock for pressure unloads

    Prepared p;
    p.asset = std::move(asset);
    if (req.range) {
        range_requests_.fetch_add(1, std::memory_order_relaxed);
        if ((req.accept & kAcceptRange) == 0)
            throw ProtocolError(ErrorCode::not_acceptable,
                                "serve: client does not accept range wires");
        // Boundary validation with a typed error, not an invariant throw
        // from plan_range deep inside the wire builder.
        const auto [lo, hi] = *req.range;
        if (lo >= hi || hi > p.asset->num_symbols())
            throw ProtocolError(
                ErrorCode::invalid_range,
                "serve: range [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + ") outside asset of " +
                    std::to_string(p.asset->num_symbols()) + " symbols");
        p.range = req.range;
        p.key = range_key(*p.asset, lo, hi);
        p.parallelism = 0;
        p.payload = PayloadKind::range;
    } else {
        const u8 need = p.asset->payload_kind() == PayloadKind::chunked
                            ? kAcceptChunked
                            : kAcceptFile;
        if ((req.accept & need) == 0)
            throw ProtocolError(
                ErrorCode::not_acceptable,
                std::string("serve: client does not accept ") +
                    payload_name(p.asset->payload_kind()) + " responses");
        p.parallelism =
            std::clamp(req.parallelism, u32{1}, p.asset->max_parallelism());
        p.key = asset_key(*p.asset);
        p.payload = p.asset->payload_kind();
    }
    return p;
}

u32 ContentServer::produce(const Prepared& p, format::WireSink& sink,
                           ServeStats& stats, obs::TraceContext* trace) {
    if (opt_.combine_hook) opt_.combine_hook(p.key);
    Stopwatch combine;
    u32 splits = 0;
    {
        obs::TraceContext::Scoped span(trace, "combine", h_combine_);
        splits = p.range ? p.asset->range_into(p.range->first,
                                                p.range->second, sink)
                         : p.asset->combine_into(p.parallelism, sink);
    }
    stats.combine_seconds = combine.seconds();
    return splits;
}

ServeResult ContentServer::serve_impl(const ServeRequest& req,
                                      obs::TraceContext& trace) {
    const Prepared p = [&] {
        auto span = trace.span("prepare", h_prepare_);
        return prepare(req);
    }();
    ServeResult res;
    res.payload = p.payload;
    const SharedResponse served = serve_shared(p, res.stats, &trace);
    res.wire = WireBytes(served, &served->wire);  // shares the response
    res.stats.splits_served = served->splits;
    res.stats.wire_bytes = res.wire->size();
    res.code = ErrorCode::ok;
    return res;
}

bool ContentServer::acquire_flight(const std::string& flight_key,
                                   std::shared_ptr<Flight>& flight) {
    util::MutexLock lk(flights_mu_);
    auto& slot = flights_[flight_key];
    if (slot == nullptr) {
        slot = std::make_shared<Flight>();
        flight = slot;
        return true;
    }
    flight = slot;
    return false;
}

SharedResponse ContentServer::serve_shared(const Prepared& p,
                                           ServeStats& stats,
                                           obs::TraceContext* trace) {
    {
        obs::TraceContext::Scoped span(trace, "cache_lookup", nullptr);
        if (SharedResponse hit = cache_.get(p.key, p.parallelism)) {
            stats.cache_hit = true;
            return hit;
        }
    }

    // Single-flight: the first request for a key becomes the leader and
    // combines; concurrent requests park on the flight and share its
    // finished response.
    // serve_stream() comes through here too, so streamed and v1 requests
    // for one key coalesce on the same flight.
    const std::string flight_key =
        p.key + "\nflight:" + std::to_string(p.parallelism);
    std::shared_ptr<Flight> flight;
    const bool leader = acquire_flight(flight_key, flight);

    if (!leader) {
        obs::TraceContext::Scoped span(trace, "coalesce_wait", nullptr);
        waiters_.fetch_add(1, std::memory_order_relaxed);
        util::MutexLock lk(flight->mu);
        while (!flight->done) flight->cv.wait(flight->mu);
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        // A fresh exception per follower; the flight's fields are immutable
        // once done, so concurrent reads need no further synchronization.
        if (flight->failed)
            throw ProtocolError(flight->error_code, flight->error_detail);
        stats.coalesced = true;
        return flight->response;
    }

    // Won the flight — but the previous leader may have populated the cache
    // between our miss and the flight insert (put happens before the flight
    // retires). Recheck before paying for a combine, and publish the cached
    // response to any followers already parked on this flight. The recheck
    // is the same logical request, whose miss the lookup above already
    // counted: a recheck miss counts nothing, a recheck hit counts its hit.
    if (SharedResponse cached =
            cache_.get(p.key, p.parallelism, /*count_miss=*/false)) {
        retire_flight(flight_key, flight, cached, ErrorCode::ok, {});
        stats.cache_hit = true;
        return cached;
    }

    SharedResponse response;
    try {
        // The serializer's one pass also yields the body-frame checksums
        // a default-size stream of this response sends.
        format::VectorSink sink(body_frame_sums(kDefaultMaxFrameBytes));
        auto made = std::make_shared<FinishedResponse>();
        made->splits = produce(p, sink, stats, trace);
        made->wire = std::move(sink.out);
        made->frame_sums = sink.frame_sums();
        response = std::move(made);
        // Publish to the cache before retiring the flight, so a request
        // arriving between the two hits the cache instead of recombining.
        // Inside the try: a put failure must retire the flight too, or
        // followers park forever. Gated on the asset still being current:
        // evict_asset() during the combine already purged this key's
        // entries, and an ungated put would resurrect a wire for a deleted
        // (or replaced) asset — stale bytes pinned until LRU pressure. The
        // flight itself still returns the wire: those requests began before
        // the eviction. (An eviction landing between the gate and the put
        // can still slip a dying entry in; its uid-scoped key can never be
        // served for the successor, so the cost is transient bytes, not
        // staleness.)
        if (store_.is_current(*p.asset))
            cache_.put(p.key, p.parallelism, response);
    } catch (const ProtocolError& e) {
        retire_flight(flight_key, flight, nullptr, e.code(), e.what());
        throw;
    } catch (const std::exception& e) {
        retire_flight(flight_key, flight, nullptr, ErrorCode::internal,
                      e.what());
        throw;
    } catch (...) {
        retire_flight(flight_key, flight, nullptr, ErrorCode::internal,
                      "combine failed");
        throw;
    }
    retire_flight(flight_key, flight, response, ErrorCode::ok, {});
    return response;
}

void ContentServer::retire_flight(const std::string& flight_key,
                                  const std::shared_ptr<Flight>& flight,
                                  SharedResponse response,
                                  ErrorCode error_code,
                                  std::string error_detail) {
    {
        util::MutexLock lk(flights_mu_);
        flights_.erase(flight_key);
    }
    {
        util::MutexLock fl(flight->mu);
        if (response != nullptr) {
            flight->response = std::move(response);
        } else {
            flight->failed = true;
            flight->error_code = error_code;
            flight->error_detail = std::move(error_detail);
        }
        flight->done = true;
    }
    flight->cv.notify_all();
}

ServeStream ContentServer::serve_stream(const ServeRequest& req,
                                        StreamOptions opt) noexcept {
    const u64 tick = requests_.fetch_add(1, std::memory_order_relaxed);
    streamed_requests_.fetch_add(1, std::memory_order_relaxed);
    ServeStream st;
    st.server_ = this;
    if (opt.max_frame_bytes != 0) st.max_frame_ = opt.max_frame_bytes;
    if (sample_tick(tick)) {
        st.trace_ = obs::TraceContext("stream", req.asset);
        st.h_frame_ = h_frame_;
    }
    ServeResult& head = st.head_;
    try {
        if ((req.accept & kAcceptStreamed) == 0)
            throw ProtocolError(
                ErrorCode::not_acceptable,
                "serve: client does not accept streamed responses");
        Prepared p = [&] {
            auto span = st.trace_.span("prepare", h_prepare_);
            return prepare(req);
        }();
        head.payload = p.payload;
        std::vector<format::ByteBuffer> pieces;
        if (opt.use_cache) {
            const SharedResponse served =
                serve_shared(p, head.stats, &st.trace_);
            head.stats.splits_served = served->splits;
            pieces.push_back(format::ByteBuffer::view(served->wire, served));
            // The held checksums match this stream's frames only at the
            // frame size they were built for, from the wire's first byte.
            if (st.max_frame_ == kDefaultMaxFrameBytes &&
                req.resume_offset == 0)
                st.sums_ = served->frame_sums;
        } else {
            PieceSink sink;
            head.stats.splits_served = produce(p, sink, head.stats, &st.trace_);
            pieces = std::move(sink.pieces);
        }
        u64 total = 0;
        u64 owned = 0;
        for (const format::ByteBuffer& piece : pieces) {
            total += piece.size();
            if (!piece.borrowed()) owned += piece.size();
        }
        RECOIL_CHECK(st.sums_.empty() ||
                         st.sums_.size() ==
                             (total + st.max_frame_ - 1) / st.max_frame_,
                     "stream: held frame checksums do not fit the wire");
        if (req.resume_offset > total)
            throw ProtocolError(
                ErrorCode::bad_request,
                "serve: resume offset " + std::to_string(req.resume_offset) +
                    " is past the " + std::to_string(total) + " B wire");
        st.digest_ = sealed_digest(pieces);
        // Resume is a seek: skip the pieces the client already holds.
        for (u64 skip = req.resume_offset; skip > 0; ++st.piece_) {
            const u64 n = pieces[st.piece_].size();
            if (skip < n) {
                st.off_ = static_cast<std::size_t>(skip);
                break;
            }
            skip -= n;
        }
        st.pieces_ = std::move(pieces);
        st.owned_ = owned;
        st.asset_ = std::move(p.asset);
        head.stats.wire_bytes = total;
        head.code = ErrorCode::ok;
    } catch (const ProtocolError& e) {
        head = fail(e.code(), e.what());
    } catch (const std::exception& e) {
        head = fail(ErrorCode::internal, e.what());
    }
    count_outcome(head);
    maybe_govern();
    return st;
}

std::vector<u8> ContentServer::serve_frame(
    std::span<const u8> request_frame) noexcept {
    try {
        ServeRequest req;
        try {
            Stopwatch decode;
            req = decode_request(request_frame);
            if (h_decode_ != nullptr) h_decode_->observe(decode.seconds());
        } catch (const ProtocolError& e) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            failures_.fetch_add(1, std::memory_order_relaxed);
            return encode_response(fail(e.code(), e.what()));
        }
        // Reserved "!..." names are introspection, answered from the
        // registry — never from the store (a leading '!' is not a legal
        // store name, so no real asset is shadowed).
        if (!req.asset.empty() && req.asset[0] == '!') {
            ServeResult res = serve_introspection(metrics_, req);
            requests_.fetch_add(1, std::memory_order_relaxed);
            if (!res.ok()) failures_.fetch_add(1, std::memory_order_relaxed);
            return encode_response(res);
        }
        return encode_response(serve(req));
    } catch (...) {
        // encode_response can only fail on allocation exhaustion; an empty
        // frame (rejected by any decoder) beats terminating the server.
        return {};
    }
}

ServeResult serve_introspection(const obs::MetricsRegistry& reg,
                                const ServeRequest& req) noexcept {
    try {
        if ((req.accept & kAcceptMetrics) == 0)
            return fail(ErrorCode::not_acceptable,
                        "serve: introspection requires the metrics accept bit");
        std::string body;
        if (req.asset == kMetricsAssetText)
            body = reg.snapshot().to_prometheus();
        else if (req.asset == kMetricsAssetJson)
            body = reg.snapshot().to_json();
        else
            return fail(ErrorCode::unknown_asset,
                        "serve: unknown introspection target '" + req.asset +
                            "'");
        ServeResult res;
        res.code = ErrorCode::ok;
        res.payload = PayloadKind::metrics;
        res.wire = share(std::vector<u8>(body.begin(), body.end()));
        res.stats.wire_bytes = res.wire->size();
        return res;
    } catch (const std::exception& e) {
        return fail(ErrorCode::internal, e.what());
    }
}

bool ContentServer::evict_asset(const std::string& name) {
    cache_.erase_asset(name);
    return store_.erase(name);
}

ContentServer::Totals ContentServer::totals() const noexcept {
    Totals t;
    t.requests = requests_.load(std::memory_order_relaxed);
    t.failures = failures_.load(std::memory_order_relaxed);
    t.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    t.range_requests = range_requests_.load(std::memory_order_relaxed);
    t.streamed_requests = streamed_requests_.load(std::memory_order_relaxed);
    t.wire_bytes = wire_bytes_.load(std::memory_order_relaxed);
    t.coalesced_requests = coalesced_.load(std::memory_order_relaxed);
    t.bytes_saved = bytes_saved_.load(std::memory_order_relaxed);
    t.governance_failures =
        governance_failures_.load(std::memory_order_relaxed);
    return t;
}

BatchStats summarize(std::span<const ServeResult> results) {
    BatchStats s;
    s.requests = results.size();
    for (const ServeResult& r : results) {
        if (!r.ok()) ++s.failures;
        if (r.stats.cache_hit) ++s.cache_hits;
        if (r.stats.coalesced) ++s.coalesced;
        s.wire_bytes += r.stats.wire_bytes;
        s.max_latency_seconds = std::max(s.max_latency_seconds, r.stats.total_seconds);
        s.sum_latency_seconds += r.stats.total_seconds;
    }
    return s;
}

}  // namespace recoil::serve
