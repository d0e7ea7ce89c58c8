#pragma once
// Shared helpers for the table/figure reproduction harness. Every bench
// binary prints the corresponding paper artifact's rows; dataset sizes are
// controlled by RECOIL_FULL=1 (paper scale) / RECOIL_SCALE=<f> (see
// workload::bench_scale), and run counts by RECOIL_RUNS.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "util/stopwatch.hpp"
#include "workload/datasets.hpp"

namespace recoil::bench {

inline int runs() {
    if (const char* r = std::getenv("RECOIL_RUNS")) {
        const int v = std::atoi(r);
        if (v > 0) return v;
    }
    return std::getenv("RECOIL_FULL") ? 10 : 5;
}

/// Average decode throughput in GB/s of `uncompressed_bytes` over `n` runs
/// (paper: average of 10 runs).
template <typename Fn>
double measure_gbps(u64 uncompressed_bytes, int n, Fn&& fn) {
    fn();  // warm-up (first-touch, caches)
    double total = 0;
    for (int i = 0; i < n; ++i) {
        Stopwatch sw;
        fn();
        total += sw.seconds();
    }
    return gbps(static_cast<double>(uncompressed_bytes), total / n);
}

inline StaticModel model_for_bytes(std::span<const u8> data, u32 prob_bits) {
    return StaticModel(histogram(data), prob_bits);
}

inline std::string human_kb(double bytes) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.0f KB", bytes / 1000.0);
    return buf;
}

inline std::string signed_kb(double bytes) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.2f KB", bytes / 1000.0);
    return buf;
}

inline std::string pct(double part, double base) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.2f%%", 100.0 * part / base);
    return buf;
}

/// Paper parallelism levels: Large = 2176 splits (fully loading the paper's
/// RTX 2080 Ti: 68 SMs x 8 blocks x 4 warps), Small = 16 (a 16-core CPU).
inline constexpr u32 kLargeSplits = 2176;
inline constexpr u32 kSmallSplits = 16;

}  // namespace recoil::bench
