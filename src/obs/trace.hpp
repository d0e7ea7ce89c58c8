#pragma once
// Per-request tracing for the serve stack. A TraceContext rides one request
// through ContentServer::prepare -> cache lookup -> combine/stream
// production -> governor pass, recording a span (name, start offset,
// duration, nesting depth) per phase into a small inline array — no heap
// on the hot path, and an inactive context (request not sampled) costs two
// pointer writes total. Spans double as the histogram feed: a Scoped span
// given a Histogram* observes its own duration on close, so the per-phase
// latency distributions and the trace come from the same clock reads.
//
// The SlowRequestLog is the bounded retention policy over finished traces:
// it keeps the N slowest requests ever seen (min-replacement, with a
// lock-free threshold so the hot path can reject obviously-fast requests
// without taking the log's mutex) and, separately, the N most recent FAILED
// requests as structured events — typed code attached, so "what failed and
// where did the time go" is answerable from a running server, not a
// debugger. Governance failures are routed here too (op "governance"), with
// the StoreError/ProtocolError code that was previously swallowed.

#include <atomic>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/ints.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {

/// One finished phase of a traced request.
struct SpanRecord {
    const char* name = "";      ///< static string (phase name)
    double start_seconds = 0;   ///< offset from the trace's start
    double duration_seconds = 0;
    int depth = 0;              ///< nesting level (0 = request-level phase)
};

/// Process-wide request-id sequence (never 0 for an active trace).
u64 next_trace_id() noexcept;

/// Trace of one request. Create active (op + asset) or default-inactive;
/// inactive contexts make every call a no-op so call sites need no
/// branching. Movable (a stream's context moves into its StreamState);
/// moving with an open Scoped span is undefined — open spans are
/// function-scoped by construction.
class TraceContext {
public:
    static constexpr int kMaxSpans = 8;

    TraceContext() = default;  // inactive
    TraceContext(const char* op, std::string asset)
        : id_(next_trace_id()), op_(op), asset_(std::move(asset)) {}

    TraceContext(TraceContext&&) = default;
    TraceContext& operator=(TraceContext&&) = default;
    TraceContext(const TraceContext&) = delete;
    TraceContext& operator=(const TraceContext&) = delete;

    bool active() const noexcept { return id_ != 0; }
    u64 id() const noexcept { return id_; }
    const char* op() const noexcept { return op_; }
    const std::string& asset() const noexcept { return asset_; }
    double elapsed() const noexcept { return clock_.seconds(); }

    /// RAII phase marker: on an active trace, records the span when it goes
    /// out of scope and, when `h` is non-null, observes the duration into
    /// the histogram — the trace and the latency distribution come from the
    /// same clock reads (offsets on the trace's own clock; no second
    /// stopwatch). On an inactive trace (this request not sampled) the
    /// span is a complete no-op: no clock read, no histogram sample —
    /// which is what makes request sampling actually free, and
    /// means the per-phase histograms describe exactly the sampled
    /// requests.
    class Scoped {
    public:
        Scoped(TraceContext* t, const char* name, Histogram* h) noexcept
            : name_(name) {
            if (t != nullptr && t->active()) {
                t_ = t;
                h_ = h;
                start_ = t->clock_.seconds();
                depth_ = t->depth_++;
            }
        }
        ~Scoped() {
            if (t_ == nullptr) return;
            const double dur = t_->clock_.seconds() - start_;
            if (h_ != nullptr) h_->observe(dur);
            --t_->depth_;
            if (t_->nspans_ < kMaxSpans)
                t_->spans_[t_->nspans_++] =
                    SpanRecord{name_, start_, dur, depth_};
        }
        Scoped(const Scoped&) = delete;
        Scoped& operator=(const Scoped&) = delete;

    private:
        TraceContext* t_ = nullptr;
        const char* name_ = "";
        Histogram* h_ = nullptr;
        double start_ = 0;
        int depth_ = 0;
    };

    Scoped span(const char* name, Histogram* h = nullptr) noexcept {
        return Scoped(this, name, h);
    }

    std::vector<SpanRecord> spans() const {
        return {spans_, spans_ + nspans_};
    }

private:
    friend class Scoped;
    u64 id_ = 0;
    const char* op_ = "";
    std::string asset_;
    Stopwatch clock_;
    SpanRecord spans_[kMaxSpans];
    int nspans_ = 0;
    int depth_ = 0;
};

/// One retained trace: a finished slow request, a failed request, or a
/// structured non-request failure event (governance).
struct TraceRecord {
    u64 id = 0;
    std::string op;         ///< "serve" | "stream" | "governance"
    std::string asset;
    bool failed = false;
    u16 code = 0;           ///< numeric ErrorCode (or StoreStatus) value
    std::string code_name;  ///< e.g. "unknown_asset", "store:bad_manifest"
    std::string detail;
    bool cache_hit = false;
    double total_seconds = 0;
    u64 wire_bytes = 0;
    std::vector<SpanRecord> spans;
    u64 sequence = 0;  ///< admission order within the log (newest = max)
};

/// Bounded ring of the N slowest and the N most recent failed requests.
class SlowRequestLog {
public:
    explicit SlowRequestLog(std::size_t slow_slots = 32,
                            std::size_t failed_slots = 32)
        : slow_slots_(slow_slots), failed_slots_(failed_slots) {}

    /// Lock-free pre-filter for the hot path: false means record() would
    /// certainly drop the event, so the caller can skip building the
    /// TraceRecord entirely. Failures are always interesting; successes
    /// only once they beat the slowest-set's current floor.
    bool interesting(double total_seconds, bool failed) const noexcept {
        if (failed && failed_slots_ != 0) return true;
        if (slow_slots_ == 0) return false;
        const u64 floor_ns = slow_floor_ns_.load(std::memory_order_relaxed);
        return total_seconds * 1e9 > static_cast<double>(floor_ns) ||
               floor_ns == 0;
    }

    void record(TraceRecord rec) RECOIL_EXCLUDES(mu_);

    /// The retained slowest requests, slowest first.
    std::vector<TraceRecord> slowest() const RECOIL_EXCLUDES(mu_);
    /// The retained failed requests, most recent first.
    std::vector<TraceRecord> recent_failures() const RECOIL_EXCLUDES(mu_);

    u64 recorded() const noexcept {
        return recorded_.load(std::memory_order_relaxed);
    }

    /// {"slowest": [...], "failures": [...]} with spans inline.
    std::string to_json() const RECOIL_EXCLUDES(mu_);

private:
    std::size_t slow_slots_;
    std::size_t failed_slots_;
    mutable util::Mutex mu_;
    std::vector<TraceRecord> slow_
        RECOIL_GUARDED_BY(mu_);  ///< unordered; min replaced on insert
    std::deque<TraceRecord> failed_
        RECOIL_GUARDED_BY(mu_);  ///< push_back new, pop_front old
    /// Duration floor of the slow set once full (0 = not full yet): the
    /// lock-free gate behind interesting() — a documented escape, read
    /// without mu_ on the hot path and published under it by record().
    std::atomic<u64> slow_floor_ns_{0};
    std::atomic<u64> recorded_{0};
    u64 seq_ RECOIL_GUARDED_BY(mu_) = 0;
};

}  // namespace recoil::obs
