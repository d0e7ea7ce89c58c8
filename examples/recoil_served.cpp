// The serve stack's network daemon: `recoil_served --store DIR --port N`
// boots a ContentServer over a persistent DiskStore and runs the epoll
// event loop (src/net/daemon.hpp) until SIGTERM/SIGINT, which triggers a
// graceful drain — new connects refused, in-flight streams completed and
// flushed, then exit 0. Clients speak the length-prefixed frame protocol:
// `recoil_client` (examples/recoil_client.cpp), the src/net/client.hpp
// library, or anything that can write `[u32 LE length][RCRQ frame]`.
//
// Scale-out flags: `--shards N` fronts N independent ContentServer shards
// with a consistent-hash ShardedServer (per-shard DiskStore partitions
// under --store, budget rebalancing, peer fetch); `--loops N` runs N
// level-triggered epoll event-loop threads, each with its own SO_REUSEPORT
// listener on the shared port. Both default to 1, preserving the classic
// single-server single-loop daemon.
//
// Numeric flags must be a whole decimal number within the flag's range;
// anything else ("70000" for a port, "x", "-1") prints the usage and
// exits 2.
//
// `--seed-demo` encodes a small deterministic text asset ("demo", 1 MB,
// 256-way splits) into the store at boot so the daemon can serve traffic
// without a separately prepared store — what the CI smoke and the README
// quick-start use.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "net/daemon.hpp"
#include "serve/shard_router.hpp"
#include "serve/store.hpp"
#include "workload/datasets.hpp"

using namespace recoil;

namespace {

net::Daemon* g_daemon = nullptr;

/// Upper bound for --shards and --loops: each shard is a full serve stack
/// and each loop an OS thread.
constexpr u64 kMaxShardsOrLoops = 1024;

// begin_drain() is an atomic store plus one eventfd write per loop —
// async-signal-safe.
void on_signal(int) {
    if (g_daemon != nullptr) g_daemon->begin_drain();
}

/// A size like "64M" or "1.5G"; 0 when malformed.
u64 parse_bytes(const char* s) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || !std::isfinite(v) || v < 0) return 0;
    u64 mult = 1;
    if (*end == 'K' || *end == 'k') mult = u64{1} << 10, ++end;
    else if (*end == 'M' || *end == 'm') mult = u64{1} << 20, ++end;
    else if (*end == 'G' || *end == 'g') mult = u64{1} << 30, ++end;
    const double bytes = v * static_cast<double>(mult);
    if (*end != '\0' || bytes >= 0x1p64) return 0;
    return static_cast<u64>(bytes);
}

/// The whole of `s` as a decimal integer in [lo, hi]; nullopt otherwise
/// (empty, a sign, trailing characters, overflow, out of range).
std::optional<u64> parse_uint(const char* s, u64 lo, u64 hi) {
    u64 v = 0;
    const char* end = s + std::strlen(s);
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: recoil_served [--store DIR] [--port N] [--bind ADDR]\n"
                 "                     [--mem-budget SZ] [--max-conns N]\n"
                 "                     [--idle-timeout MS] [--seed-demo]\n"
                 "                     [--shards N] [--loops N]\n"
                 "                     [--rebalance-every N]\n");
    std::exit(2);
}

int run_daemon(net::Daemon& daemon, const net::DaemonOptions& dopt) {
    g_daemon = &daemon;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::printf("recoil_served listening on %s:%u (%u loop%s, max-conns %u, "
                "idle-timeout %lld ms)\n",
                dopt.bind_address.c_str(), daemon.port(), dopt.loops,
                dopt.loops == 1 ? "" : "s", dopt.max_connections,
                static_cast<long long>(dopt.idle_timeout.count()));
    std::fflush(stdout);
    daemon.run();
    const auto s = daemon.stats();
    g_daemon = nullptr;
    std::printf("drained: %llu conns served, %llu requests "
                "(%llu streamed), %llu refused, %llu idle-closed\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.streamed),
                static_cast<unsigned long long>(s.refused),
                static_cast<unsigned long long>(s.idle_closed));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const char* store_dir = nullptr;
    bool seed_demo = false;
    u64 mem_budget = 0;
    u32 shards = 1;
    u64 rebalance_every = 1024;
    net::DaemonOptions dopt;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage();
            }
            return argv[++i];
        };
        auto number = [&](const char* flag, u64 lo, u64 hi) -> u64 {
            const char* s = need(flag);
            if (const auto v = parse_uint(s, lo, hi)) return *v;
            std::fprintf(stderr,
                         "%s expects an integer in [%llu, %llu], got '%s'\n",
                         flag, static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(hi), s);
            usage();
        };
        if (std::strcmp(argv[i], "--store") == 0) {
            store_dir = need("--store");
        } else if (std::strcmp(argv[i], "--port") == 0) {
            dopt.port = static_cast<u16>(number("--port", 0, 65535));
        } else if (std::strcmp(argv[i], "--bind") == 0) {
            dopt.bind_address = need("--bind");
        } else if (std::strcmp(argv[i], "--mem-budget") == 0) {
            if ((mem_budget = parse_bytes(need("--mem-budget"))) == 0) {
                std::fprintf(stderr,
                             "--mem-budget requires a size, e.g. 64M\n");
                usage();
            }
        } else if (std::strcmp(argv[i], "--max-conns") == 0) {
            dopt.max_connections = static_cast<u32>(
                number("--max-conns", 0, std::numeric_limits<u32>::max()));
        } else if (std::strcmp(argv[i], "--idle-timeout") == 0) {
            dopt.idle_timeout = std::chrono::milliseconds(number(
                "--idle-timeout", 0, std::numeric_limits<int>::max()));
        } else if (std::strcmp(argv[i], "--seed-demo") == 0) {
            seed_demo = true;
        } else if (std::strcmp(argv[i], "--shards") == 0) {
            shards = static_cast<u32>(
                number("--shards", 1, kMaxShardsOrLoops));
        } else if (std::strcmp(argv[i], "--loops") == 0) {
            dopt.loops = static_cast<u32>(
                number("--loops", 1, kMaxShardsOrLoops));
        } else if (std::strcmp(argv[i], "--rebalance-every") == 0) {
            rebalance_every = number("--rebalance-every", 0,
                                     std::numeric_limits<u64>::max());
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            usage();
        }
    }
    if (store_dir == nullptr && !seed_demo) {
        std::fprintf(stderr,
                     "nothing to serve: pass --store DIR and/or --seed-demo\n");
        usage();
    }

    try {
        if (shards > 1) {
            serve::ShardedOptions ropt;
            ropt.shards = shards;
            ropt.total_budget_bytes = mem_budget;
            ropt.rebalance_every = rebalance_every;
            if (store_dir != nullptr) ropt.store_dir = store_dir;
            serve::ShardedServer router(ropt);
            if (seed_demo &&
                !router.shard(router.shard_of("demo"))
                     .store()
                     .resolve("demo")) {
                auto data = workload::gen_text(1'000'000, 2024);
                router.encode_bytes("demo", data, 256);
                std::printf("seeded 'demo' (1 MB text, 256-way splits) "
                            "into shard %u of %u\n",
                            router.shard_of("demo"), shards);
            }
            net::Daemon daemon(router, dopt);
            const int rc = run_daemon(daemon, dopt);
            const auto t = router.totals();
            std::printf("router: %llu routed, %llu peer fetches "
                        "(%llu B), %llu rebalances\n",
                        static_cast<unsigned long long>(t.routed),
                        static_cast<unsigned long long>(t.peer_fetches),
                        static_cast<unsigned long long>(t.peer_fetch_bytes),
                        static_cast<unsigned long long>(t.rebalances));
            return rc;
        }

        serve::ServerOptions sopt;
        sopt.mem_budget_bytes = mem_budget;
        serve::ContentServer server(sopt);
        if (store_dir != nullptr) {
            auto disk = std::make_shared<serve::DiskStore>(store_dir);
            server.store().attach_backing(disk);
            std::printf("store: %s (%zu stored assets)\n", store_dir,
                        disk->size());
        }
        if (seed_demo && server.store().resolve("demo") == nullptr) {
            auto data = workload::gen_text(1'000'000, 2024);
            server.store().encode_bytes("demo", data, 256);
            std::printf("seeded 'demo' (1 MB text, 256-way splits)\n");
        }
        net::Daemon daemon(server, dopt);
        return run_daemon(daemon, dopt);
    } catch (const net::NetError& e) {
        std::fprintf(stderr, "recoil_served: %s\n", e.what());
        return 1;
    } catch (const Error& e) {
        std::fprintf(stderr, "recoil_served: %s\n", e.what());
        return 1;
    }
    return 0;
}
