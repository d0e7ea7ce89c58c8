// recoil_perfbench: one workload of the end-to-end benchmark per run.
//
//   recoil_perfbench --workload decode-classes|cold-stream
//                    --seed N --seconds S --trace 0|1
//                    --daemon PATH/recoil_served --work DIR [--trace-out FILE]
//                    [--git-sha SHA]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs print
// the per-layer metrics, which come with spans and in-process replays that
// would perturb the end-to-end numbers. Every metric is printed by name with
// its unit; the last stdout line is the JSON result. Any output mismatch
// makes the run exit 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "common.hpp"

namespace {

using pb::Sheet;

struct Name {
    const char* name;
    const char* unit;
};

const std::vector<Name>& end_to_end_names() {
    static const std::vector<Name> v = {
        {"setup_s", "s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"decoded_gbps", "GB/s"},
        {"wire_overhead_pct", "%"},
        {"server_cpu_us_per_req", "us"},
        {"server_peak_rss_mb", "MB"},
    };
    return v;
}

const std::vector<Name>& per_layer_names() {
    static const std::vector<Name> v = [] {
        std::vector<Name> n = {
            {"rans.encode_mbps", "MB/s"},
            {"simd.decode_ns_per_sym", "ns"},
            {"simd.speedup_vs_scalar", "x"},
        };
        static const char* const paper[] = {
            "paper.single_gbps.scalar",        "paper.single_gbps.avx2",
            "paper.single_gbps.avx512",        "paper.conventional_gbps.scalar",
            "paper.conventional_gbps.avx2",    "paper.conventional_gbps.avx512",
            "paper.recoil_gbps.scalar",        "paper.recoil_gbps.avx2",
            "paper.recoil_gbps.avx512",        "paper.recoil_vs_conventional.scalar",
            "paper.recoil_vs_conventional.avx2", "paper.recoil_vs_conventional.avx512",
        };
        for (const char* p : paper)
            n.push_back({p, std::strstr(p, "_vs_") != nullptr ? "x" : "GB/s"});
        const std::vector<Name> rest = {
            {"core.combine_us", "us"},
            {"core.metadata_bytes_per_split", "B"},
            {"core.sync_waste_ratio", "ratio"},
            {"util.pool_efficiency", "ratio"},
            {"format.serialize_ns_per_byte", "ns"},
            {"format.parse_ns_per_byte", "ns"},
            {"serve.cache_hit_ratio", "ratio"},
            {"serve.combine_ms_p50", "ms"},
            {"serve.combine_ms_p99", "ms"},
            {"serve.stream_frame_us_p50", "us"},
            {"serve.evictions_per_req", "count"},
            {"serve.unloads", "count"},
            {"serve.cache_bytes_per_entry", "B"},
            {"shard.load_skew", "ratio"},
            {"shard.peer_fetches", "count"},
            {"net.transport_us_p50", "us"},
            {"net.wakeups_per_req", "count"},
            {"net.syscalls_per_req", "count"},
            {"net.ttfb_ms_p50", "ms"},
            {"net.ttlb_ms_p50", "ms"},
            {"net.frames_per_response", "count"},
            {"net.stream_gbps", "GB/s"},
            {"client.decode_ms_p50", "ms"},
            {"workload.error_ratio", "ratio"},
            {"trace.self_pct.core", "%"},
            {"trace.self_pct.format", "%"},
            {"trace.self_pct.simd", "%"},
            {"trace.self_pct.rans", "%"},
            {"trace.self_pct.net", "%"},
            {"trace.self_pct.client", "%"},
            {"trace.remainder_pct", "%"},
            {"trace.overhead_pct", "%"},
            {"trace.spans", "count"},
        };
        n.insert(n.end(), rest.begin(), rest.end());
        return n;
    }();
    return v;
}

int usage() {
    std::fprintf(stderr,
                 "usage: recoil_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --work DIR [--trace-out FILE] "
                 "[--git-sha SHA]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    pb::Args args;
    std::string git_sha = "unknown";
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc) return usage();
        const char* flag = argv[i];
        const char* val = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) args.workload = val;
        else if (std::strcmp(flag, "--seed") == 0) args.seed = std::strtoull(val, nullptr, 10);
        else if (std::strcmp(flag, "--seconds") == 0) args.seconds = std::atof(val);
        else if (std::strcmp(flag, "--trace") == 0) args.trace = std::atoi(val) != 0;
        else if (std::strcmp(flag, "--daemon") == 0) args.daemon = val;
        else if (std::strcmp(flag, "--work") == 0) args.work = val;
        else if (std::strcmp(flag, "--trace-out") == 0) args.trace_out = val;
        else if (std::strcmp(flag, "--git-sha") == 0) git_sha = val;
        else return usage();
    }
    if (args.seconds <= 0 || args.work.empty()) return usage();

    pb::print_host(git_sha);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    Sheet sheet;
    try {
        if (args.workload == "decode-classes") pb::run_decode_classes(args, sheet);
        else if (args.workload == "cold-stream") pb::run_cold_stream(args, sheet);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "recoil_perfbench: %s\n", e.what());
        return 2;
    }
    if (!args.trace && pb::tracer().span_count() != 0) {
        std::fprintf(stderr, "recoil_perfbench: untraced run recorded spans\n");
        return 2;
    }

    // Emit exactly this mode's metric list, in catalogue order.
    Sheet out;
    out.attempted = sheet.attempted;
    out.failed = sheet.failed;
    std::string na_list;
    for (const Name& n : args.trace ? per_layer_names() : end_to_end_names()) {
        double value = 0;
        bool found = false;
        for (const auto& [name, vu] : sheet.metrics) {
            if (name == n.name) {
                value = vu.first;
                found = true;
            }
        }
        if (!found) {
            na_list += std::string(na_list.empty() ? "" : ", ") + n.name;
        } else {
            std::printf("  %-36s %14.6g %s\n", n.name, value, n.unit);
        }
        out.set(n.name, value, n.unit);
    }
    if (!na_list.empty())
        std::printf("  not exercised by %s (reported as 0): %s\n", args.workload.c_str(),
                    na_list.c_str());
    std::printf("attempted=%llu failed=%llu error_ratio=%.6g\n",
                static_cast<unsigned long long>(sheet.attempted),
                static_cast<unsigned long long>(sheet.failed),
                sheet.attempted == 0 ? 0.0
                                     : static_cast<double>(sheet.failed) /
                                           static_cast<double>(sheet.attempted));
    std::printf("%s\n", out.json().c_str());
    return sheet.failed == 0 && sheet.attempted > 0 ? 0 : 1;
}
