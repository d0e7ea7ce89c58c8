// Command-line client for recoil_served, built on src/net/client.hpp.
//
//   recoil_client --port N [--host H] ASSET            # v1 fetch, stats
//   recoil_client --port N --stream ASSET              # v2 streamed fetch
//   recoil_client --port N --range LO:HI ASSET         # byte-range fetch
//   recoil_client --port N --verify ASSET              # v1 vs v2 bit-exact
//   recoil_client --port N --metrics                   # "!metrics" scrape
//   recoil_client --port N --metrics-json out.json     # JSON snapshot
//   recoil_client --port N --bench-tenants R [ASSET]   # tenant-mix smoke
//
// --verify exchanges the same request over both framings and exits
// nonzero unless the reassembled v2 wire is byte-identical to the v1
// response — the daemon smoke test's end-to-end check. Connects retry for
// a few seconds so a just-forked daemon has time to start listening.
//
// Numeric flags must be a whole decimal number within the flag's range;
// anything else prints the usage and exits 2 before connecting.
//
// --bench-tenants R replays a seed-deterministic multi-tenant open-loop
// plan (workload::traffic_plan: 3 tenants, Zipf keys, Poisson arrivals, a
// flash crowd and a unique scan window) as R paced range requests against
// ASSET (default "demo", which --seed-demo daemons always carry), then
// prints client-observed p50/p99/p999 — the smoke-test cousin of
// bench_serve's full shard-scaling harness.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <thread>

#include "cli_flags.hpp"
#include "net/client.hpp"
#include "workload/traffic.hpp"

using namespace recoil;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: recoil_client --port N [--host H] [--parallelism P]\n"
                 "                     [--range LO:HI] [--stream] [--verify]\n"
                 "                     [--out PATH] [--metrics]\n"
                 "                     [--metrics-json PATH]\n"
                 "                     [--bench-tenants REQUESTS] [ASSET]\n");
    return 2;
}

/// Retrying connect: a daemon forked moments ago may not be listening
/// yet (a smoke script starts both in one shell line).
net::Client connect_retrying(net::ClientOptions opt,
                             std::chrono::milliseconds budget) {
    const auto give_up = std::chrono::steady_clock::now() + budget;
    for (;;) {
        try {
            return net::Client(opt);
        } catch (const net::NetError&) {
            if (std::chrono::steady_clock::now() >= give_up) throw;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
}

/// Replay a small deterministic tenant mix as paced range requests over
/// one connection. Every (tenant, key) pair maps to a stable byte range
/// of `asset`; scan arrivals derive a never-repeating range from their
/// plan index, so the server's cache sees genuine one-hit wonders.
int bench_tenants(net::Client& client, const char* asset,
                  std::size_t requests) {
    workload::TrafficOptions topt;
    topt.tenants = {{"alpha", 48, 1.1, 3.0},
                    {"bravo", 32, 0.9, 2.0},
                    {"carol", 16, 1.3, 1.0}};
    topt.requests = requests;
    topt.offered_rps = 2000.0;
    topt.arrivals = workload::ArrivalProcess::poisson;
    topt.phases = {{workload::PhaseSpec::Kind::flash_crowd, 0.30, 0.45, 0,
                    0.6},
                   {workload::PhaseSpec::Kind::unique_scan, 0.60, 0.75, 0,
                    0.5}};
    topt.seed = 7;
    const auto plan = workload::traffic_plan(topt);

    constexpr u64 kAssetBytes = 1'000'000;  // --seed-demo corpus size
    constexpr u64 kChunk = 4096;
    std::vector<double> micros;
    micros.reserve(plan.size());
    u64 errors = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& a : plan) {
        const auto due = start + std::chrono::duration_cast<
                                     std::chrono::steady_clock::duration>(
                                     std::chrono::duration<double>(
                                         a.at_seconds));
        if (due > std::chrono::steady_clock::now())
            std::this_thread::sleep_until(due);
        u64 lo;
        if (a.scan) {
            lo = (static_cast<u64>(a.index) * kChunk) %
                 (kAssetBytes - kChunk);
        } else {
            const u64 mix = (static_cast<u64>(a.tenant) << 32 | a.key) *
                            u64{0x9E3779B97F4A7C15};
            lo = mix % (kAssetBytes - kChunk);
        }
        serve::ServeRequest req{asset, 4, {{lo, lo + kChunk}},
                                serve::kAcceptAll};
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = client.request(req);
        const auto t1 = std::chrono::steady_clock::now();
        if (!res.ok()) {
            ++errors;
            continue;
        }
        micros.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (micros.empty()) {
        std::fprintf(stderr, "bench-tenants: all %llu requests failed\n",
                     static_cast<unsigned long long>(errors));
        return 1;
    }
    std::sort(micros.begin(), micros.end());
    auto pct = [&](double p) {
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(micros.size() - 1));
        return micros[idx];
    };
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf("bench-tenants: %zu ok, %llu errors, %.0f req/s | "
                "p50 %.0f us, p99 %.0f us, p999 %.0f us\n",
                micros.size(), static_cast<unsigned long long>(errors),
                static_cast<double>(micros.size()) / elapsed, pct(0.50),
                pct(0.99), pct(0.999));
    return errors == 0 ? 0 : 1;
}

bool dump_file(const char* path, const std::string& body) {
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return false;
    }
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    net::ClientOptions copt;
    const char* asset = nullptr;
    const char* out_path = nullptr;
    const char* metrics_json = nullptr;
    bool want_metrics = false;
    bool stream = false;
    bool verify = false;
    std::size_t bench_requests = 0;
    u32 parallelism = 8;
    std::optional<std::pair<u64, u64>> range;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(usage());
            }
            return argv[++i];
        };
        auto number = [&](const char* flag, std::string_view s, u64 lo,
                          u64 hi) -> u64 {
            if (const auto v = cli::flag_uint(flag, s, lo, hi)) return *v;
            std::exit(usage());
        };
        if (std::strcmp(argv[i], "--host") == 0) {
            copt.host = need("--host");
        } else if (std::strcmp(argv[i], "--port") == 0) {
            copt.port = static_cast<u16>(number("--port", need("--port"), 1,
                                                65535));
        } else if (std::strcmp(argv[i], "--parallelism") == 0) {
            parallelism = static_cast<u32>(
                number("--parallelism", need("--parallelism"), 1,
                       std::numeric_limits<u32>::max()));
        } else if (std::strcmp(argv[i], "--range") == 0) {
            const std::string_view spec = need("--range");
            const auto colon = spec.find(':');
            if (colon == std::string_view::npos) {
                std::fprintf(stderr, "--range wants LO:HI\n");
                return usage();
            }
            const u64 max = std::numeric_limits<u64>::max();
            const u64 lo = number("--range", spec.substr(0, colon), 0, max);
            const u64 hi = number("--range", spec.substr(colon + 1), 0, max);
            range = {{lo, hi}};
        } else if (std::strcmp(argv[i], "--stream") == 0) {
            stream = true;
        } else if (std::strcmp(argv[i], "--verify") == 0) {
            verify = true;
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out_path = need("--out");
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            want_metrics = true;
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
            metrics_json = need("--metrics-json");
        } else if (std::strcmp(argv[i], "--bench-tenants") == 0) {
            bench_requests = static_cast<std::size_t>(
                number("--bench-tenants", need("--bench-tenants"), 1,
                       std::numeric_limits<std::size_t>::max()));
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        } else {
            asset = argv[i];
        }
    }
    if (copt.port == 0) {
        std::fprintf(stderr, "--port is required\n");
        return usage();
    }
    if (asset == nullptr && !want_metrics && metrics_json == nullptr &&
        bench_requests == 0)
        return usage();

    try {
        net::Client client =
            connect_retrying(copt, std::chrono::milliseconds(10'000));

        if (bench_requests > 0)
            return bench_tenants(client, asset != nullptr ? asset : "demo",
                                 bench_requests);

        if (asset != nullptr) {
            serve::ServeRequest req{asset, parallelism, range,
                                    serve::kAcceptAll |
                                        serve::kAcceptMetrics};
            serve::ServeResult v1;
            if (!stream || verify) v1 = client.request(req);
            serve::ServeResult v2;
            u64 frames = 0;
            if (stream || verify)
                v2 = client.request_streamed(
                    req, [&](std::span<const u8>) { ++frames; });
            const serve::ServeResult& res = stream ? v2 : v1;
            if (!res.ok()) {
                std::fprintf(stderr, "serve failed [%s]: %s\n",
                             serve::error_name(res.code), res.detail.c_str());
                return 1;
            }
            if (verify) {
                const bool exact = v1.ok() && v2.ok() && v1.wire && v2.wire &&
                                   *v1.wire == *v2.wire;
                std::printf("verify %s: v1 %zu B, v2 %llu frames -> %s\n",
                            asset, v1.wire ? v1.wire->size() : 0,
                            static_cast<unsigned long long>(frames),
                            exact ? "bit-exact" : "MISMATCH");
                if (!exact) return 1;
            } else {
                std::printf("%s: %llu wire bytes [%s]%s%s\n", asset,
                            static_cast<unsigned long long>(
                                res.stats.wire_bytes),
                            serve::payload_name(res.payload),
                            res.stats.cache_hit ? ", cache hit" : "",
                            stream ? ", streamed" : "");
            }
            if (out_path != nullptr && res.wire &&
                !dump_file(out_path, std::string(res.wire->begin(),
                                                 res.wire->end())))
                return 1;
        }

        if (want_metrics) std::fputs(client.fetch_metrics(false).c_str(),
                                     stdout);
        if (metrics_json != nullptr &&
            !dump_file(metrics_json, client.fetch_metrics(true)))
            return 1;
    } catch (const Error& e) {
        std::fprintf(stderr, "recoil_client: %s\n", e.what());
        return 1;
    }
    return 0;
}
