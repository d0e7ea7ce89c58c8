#include "obs/metrics.hpp"

#include <cstdio>
#include <string_view>

#include "obs/json.hpp"

namespace recoil::obs {

double HistogramSnapshot::percentile(double q) const noexcept {
    if (count == 0) return 0.0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const double need = q * static_cast<double>(count);
    double cum = 0;
    int last_nonempty = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
        const u64 b = buckets[i];
        if (b == 0) continue;
        last_nonempty = i;
        if (cum + static_cast<double>(b) >= need) {
            const double lo =
                static_cast<double>(Histogram::bucket_lo_ns(i));
            // The open upper bound interpolates to 2^(i+1); the final
            // bucket is unbounded, so its estimate saturates at 2*lo.
            const double hi = i >= Histogram::kBuckets - 1
                                  ? 2.0 * lo
                                  : static_cast<double>(
                                        Histogram::bucket_hi_ns(i));
            const double frac =
                need <= cum ? 0.0 : (need - cum) / static_cast<double>(b);
            return (lo + (hi - lo) * frac) / 1e9;
        }
        cum += static_cast<double>(b);
    }
    // count said more samples than the buckets hold (a racing writer
    // between the two loads): report the top of the last occupied bucket.
    return static_cast<double>(Histogram::bucket_hi_ns(last_nonempty)) / 1e9;
}

const u64* MetricsSnapshot::find(const std::string& name) const noexcept {
    for (const auto& [n, v] : counters)
        if (n == name) return &v;
    for (const auto& [n, v] : gauges)
        if (n == name) return &v;
    return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const noexcept {
    for (const HistogramSnapshot& h : histograms)
        if (h.name == name) return &h;
    return nullptr;
}

std::string fmt_u64(u64 v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

namespace {

/// Metric family name of a possibly-labeled series (`a{b="c"}` -> `a`).
std::string_view base_name(std::string_view series) {
    return series.substr(0, series.find('{'));
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
    std::string out;
    // One # TYPE line per consecutive run of a family: a labeled series
    // (`name{shard="0"}`) sorts directly after its unlabeled aggregate, so
    // the family header is emitted once for the whole run.
    std::string_view last_base;
    for (const auto& [name, value] : counters) {
        if (base_name(name) != last_base) {
            last_base = base_name(name);
            out += "# TYPE " + std::string(last_base) + " counter\n";
        }
        out += name + " " + fmt_u64(value) + "\n";
    }
    last_base = {};
    for (const auto& [name, value] : gauges) {
        if (base_name(name) != last_base) {
            last_base = base_name(name);
            out += "# TYPE " + std::string(last_base) + " gauge\n";
        }
        out += name + " " + fmt_u64(value) + "\n";
    }
    for (const HistogramSnapshot& h : histograms) {
        out += "# TYPE " + h.name + " histogram\n";
        u64 cum = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (h.buckets[i] == 0) continue;  // sparse: skip empty octaves
            cum += h.buckets[i];
            const double le =
                static_cast<double>(Histogram::bucket_hi_ns(i)) / 1e9;
            out += h.name + "_bucket{le=\"" + fmt_double(le) + "\"} " +
                   fmt_u64(cum) + "\n";
        }
        out += h.name + "_bucket{le=\"+Inf\"} " + fmt_u64(h.count) + "\n";
        out += h.name + "_sum " +
               fmt_double(static_cast<double>(h.sum_ns) / 1e9) + "\n";
        out += h.name + "_count " + fmt_u64(h.count) + "\n";
    }
    return out;
}

std::string MetricsSnapshot::to_json() const {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "\"" + json_escape(name) + "\": " + fmt_u64(value);
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "\"" + json_escape(name) + "\": " + fmt_u64(value);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const HistogramSnapshot& h : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "\"" + h.name + "\": {\"count\": " + fmt_u64(h.count) +
               ", \"sum_seconds\": " +
               fmt_double(static_cast<double>(h.sum_ns) / 1e9) +
               ", \"mean_seconds\": " + fmt_double(h.mean_seconds()) +
               ", \"p50\": " + fmt_double(h.p50()) +
               ", \"p90\": " + fmt_double(h.p90()) +
               ", \"p99\": " + fmt_double(h.p99()) +
               ", \"p999\": " + fmt_double(h.p999()) + ", \"buckets\": [";
        bool bfirst = true;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (h.buckets[i] == 0) continue;
            if (!bfirst) out += ", ";
            bfirst = false;
            out += "[" +
                   fmt_double(static_cast<double>(Histogram::bucket_hi_ns(i)) /
                              1e9) +
                   ", " + fmt_u64(h.buckets[i]) + "]";
        }
        out += "]}";
    }
    out += "\n  }\n}";
    return out;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    util::MutexLock lk(mu_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
}

void MetricsRegistry::register_callback(const std::string& name,
                                        MetricKind kind, Callback fn) {
    util::MutexLock lk(mu_);
    callbacks_[name] = {kind, std::move(fn)};
}

void MetricsRegistry::register_callback(const std::string& name,
                                        const std::string& labels,
                                        MetricKind kind, Callback fn) {
    if (labels.empty()) {
        register_callback(name, kind, std::move(fn));
        return;
    }
    util::MutexLock lk(mu_);
    callbacks_[name + "{" + labels + "}"] = {kind, std::move(fn)};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot snap;
    util::MutexLock lk(mu_);
    // Callbacks are invoked under the registry mutex: registration order is
    // stable and a component being re-bound concurrently cannot interleave
    // with the poll. Callbacks must not call back into this registry. The
    // map walks names in order, so both lists come out sorted.
    for (const auto& [name, kg] : callbacks_) {
        const u64 v = kg.second ? kg.second() : 0;
        (kg.first == MetricKind::counter ? snap.counters : snap.gauges)
            .emplace_back(name, v);
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        HistogramSnapshot hs;
        hs.name = name;
        // Count first, buckets after: a racing observe_ns bumps buckets
        // before count, so buckets may run AHEAD of count but the estimator
        // never reports fewer samples than the count it normalizes by.
        hs.count = h->count();
        hs.sum_ns = h->sum_ns();
        for (int i = 0; i < Histogram::kBuckets; ++i)
            hs.buckets[i] = h->bucket(i);
        snap.histograms.push_back(std::move(hs));
    }
    return snap;
}

}  // namespace recoil::obs
