#pragma once
// Lock-cheap metrics substrate for the serve stack. Counters and gauges are
// polled callbacks: a component registers a function over the stats it
// keeps anyway (CacheStats, GovernorStats, Totals, ...), and the registry
// invokes it at snapshot time only, so the callback and the component's
// stats() API read the same atomics/mutex-guarded counters and both views
// are bit-identical by construction, with no second set of hot-path
// writes. Latencies go into a fixed-bucket log2-scale Histogram built on
// relaxed atomics: a hot serve path records a sample with three fetch_adds
// through a stable Histogram* it obtained once (registration takes the
// registry mutex; recording never does).
//
// snapshot() produces a MetricsSnapshot: a point-in-time copy renderable
// as Prometheus text exposition or JSON. Consistency contract: each metric
// is internally consistent (atomic loads; a histogram's buckets may lag
// its count by in-flight samples), cross-metric skew is bounded by the
// snapshot's own duration. That is the standard contract for lock-free
// telemetry — the alternative (a global stop-the-world lock on the serve
// path) is exactly what this layer exists to avoid.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {

/// Fixed-bucket log-scale latency histogram. Bucket i holds samples in
/// [2^i, 2^(i+1)) nanoseconds (bucket 0 additionally holds 0 ns; the last
/// bucket absorbs everything above ~2^63 ns — unreachable in practice), so
/// one branchless bit_width() places a sample and the whole record path is
/// three relaxed fetch_adds. 64 octaves span 1 ns to beyond a century:
/// every latency this stack can produce lands in a real bucket.
class Histogram {
public:
    static constexpr int kBuckets = 64;

    /// floor(log2(ns)) clamped to [0, kBuckets); 0 ns maps to bucket 0.
    static int bucket_of(u64 ns) noexcept {
        return ns == 0 ? 0 : std::bit_width(ns) - 1;
    }
    /// Inclusive lower bound of bucket i in ns (bucket 0 starts at 0).
    static u64 bucket_lo_ns(int i) noexcept {
        return i == 0 ? 0 : u64{1} << i;
    }
    /// Exclusive upper bound of bucket i in ns.
    static u64 bucket_hi_ns(int i) noexcept {
        return i >= kBuckets - 1 ? ~u64{0} : u64{1} << (i + 1);
    }

    void observe_ns(u64 ns) noexcept {
        buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
    void observe(double seconds) noexcept {
        observe_ns(seconds <= 0 ? 0 : static_cast<u64>(seconds * 1e9));
    }

    u64 count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    u64 sum_ns() const noexcept {
        return sum_ns_.load(std::memory_order_relaxed);
    }
    u64 bucket(int i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }

private:
    std::array<std::atomic<u64>, kBuckets> buckets_{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_ns_{0};
};

/// Point-in-time copy of one histogram, with quantile extraction. The
/// estimator is deterministic and documented (tests pin it against an
/// independent reference): find the bucket where the cumulative count
/// reaches rank q*count, then interpolate linearly inside [lo, hi).
struct HistogramSnapshot {
    std::string name;
    u64 count = 0;
    u64 sum_ns = 0;
    std::array<u64, Histogram::kBuckets> buckets{};

    /// Quantile q in [0, 1], in SECONDS. 0 when empty.
    double percentile(double q) const noexcept;
    double p50() const noexcept { return percentile(0.50); }
    double p90() const noexcept { return percentile(0.90); }
    double p99() const noexcept { return percentile(0.99); }
    double p999() const noexcept { return percentile(0.999); }
    double mean_seconds() const noexcept {
        return count == 0 ? 0.0
                          : static_cast<double>(sum_ns) /
                                (1e9 * static_cast<double>(count));
    }
};

/// Counter vs gauge, for exposition typing of callback metrics.
enum class MetricKind : u8 { counter, gauge };

/// Point-in-time view of a whole registry: scalar metrics sorted by name
/// (std::map order — deterministic exposition), histograms likewise.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, u64>> counters;
    std::vector<std::pair<std::string, u64>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /// Value of a named counter or gauge; nullopt when absent.
    const u64* find(const std::string& name) const noexcept;
    const HistogramSnapshot* find_histogram(
        const std::string& name) const noexcept;

    /// Prometheus text exposition format (# TYPE lines, histogram buckets
    /// as cumulative le-labeled series plus _sum/_count).
    std::string to_prometheus() const;
    /// One JSON object: {"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum_seconds, mean/p50/p90/p99/p999,
    /// buckets: [[le_seconds, count], ...nonempty only]}}.
    std::string to_json() const;
};

/// Named metric directory. histogram() is get-or-create and returns a
/// reference stable for the registry's lifetime (hold the pointer; never
/// re-look-up on a hot path). register_callback() attaches a polled
/// counter or gauge: the function is invoked at snapshot() time only — the
/// mechanism by which existing stats structs join the registry without a
/// second set of hot-path writes. Re-registering a callback name replaces
/// it (a replaced component, e.g. a re-attached DiskStore, takes over its
/// names).
class MetricsRegistry {
public:
    Histogram& histogram(const std::string& name) RECOIL_EXCLUDES(mu_);

    using Callback = std::function<u64()>;
    void register_callback(const std::string& name, MetricKind kind,
                           Callback fn) RECOIL_EXCLUDES(mu_);
    /// Labeled callback series: `labels` is raw Prometheus label syntax
    /// (e.g. `shard="3"`). The series is exposed as `name{labels}` — one
    /// `# TYPE` line per base name covers all its label permutations — and
    /// keyed by the full labeled string, so (name, labels) pairs replace
    /// independently. Empty labels degrade to the unlabeled overload.
    void register_callback(const std::string& name, const std::string& labels,
                           MetricKind kind, Callback fn) RECOIL_EXCLUDES(mu_);

    MetricsSnapshot snapshot() const RECOIL_EXCLUDES(mu_);

private:
    // mu_ guards the name->metric directory only. The histograms
    // themselves are relaxed atomics recorded against via stable pointers —
    // the documented lock-free escape that keeps the serve hot path from
    // ever taking this mutex.
    mutable util::Mutex mu_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        RECOIL_GUARDED_BY(mu_);
    std::map<std::string, std::pair<MetricKind, Callback>> callbacks_
        RECOIL_GUARDED_BY(mu_);
};

}  // namespace recoil::obs
