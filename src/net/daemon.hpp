#pragma once
// `recoil_served`'s engine: nonblocking epoll event loops speaking the
// length-prefixed transport framing (net/framing.hpp) over TCP and
// dispatching into a ContentServer — or, for scale-out, a ShardedServer.
//
// Shape of one loop:
//   - a listener, accept4(SOCK_NONBLOCK) drained per readiness event;
//     over-limit connections are accepted and immediately closed (counted
//     as refused) so the peer sees a deterministic EOF, not a SYN backlog
//     stall. At the fd limit the loop frees a reserved fd to do the same
//     to the head of its backlog, so a full fd table neither spins the
//     loop nor strands connections in the backlog.
//   - per-connection state: a FrameReader, at most one reply, and the
//     outbound buffer. The reader reassembles request frames from
//     arbitrary partial reads, and they wait there until the reply before
//     them finishes (pipelining works, ordering is preserved). The daemon
//     never reads a request: each frame goes, as is, to the backend's
//     serve_frame(), and the reply is a ServeStream — a v2 stream or one
//     v1 response frame — whose frames are pulled ONLY when the outbound
//     buffer has fully flushed. The socket's writability is the
//     backpressure, and the socket is read only while no reply and no
//     complete request wait, so per-connection owned memory stays
//     O(max_frame) regardless of asset size or reader speed. A pull never
//     waits.
//   - readiness: level-triggered, taken from each epoll report. The
//     interest mask is EPOLLOUT while output is pending, else EPOLLIN, and
//     a connection reads at most once per report, so a peer that keeps
//     pipelining cannot hold the loop.
//
// Multi-loop (DaemonOptions::loops > 1): N loops, each a dedicated OS
// thread (util::NamedThreads — loops BLOCK in epoll_wait) with its OWN
// listener, epoll fd and connection table — independent connections never
// contend on one loop. Every loop binds an SO_REUSEPORT listener to the
// same port and the kernel spreads accepts across them; a multi-loop
// daemon that cannot get SO_REUSEPORT fails construction.
//
// Graceful drain: begin_drain() is async-signal-safe (one atomic store +
// one write() per loop eventfd), so SIGTERM/SIGINT handlers call it
// directly. Every loop then closes its listener, stops reading new bytes,
// finishes every in-flight stream and already-received request, flushes,
// closes, and run() returns once all loops exit — the daemon main exits 0.
//
// Counters/gauges register into the backend's MetricsRegistry under
// daemon_* names via callbacks over a shared stats block, so a scrape
// through "!metrics" (over this very socket) sees the daemon alongside
// the serve subsystems — and a registry outliving the daemon polls the
// shared block, never freed memory. Per-loop series carry a `loop="i"`
// label next to the unlabeled aggregates.

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/error.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"
#include "serve/shard_router.hpp"

namespace recoil::net {

struct DaemonOptions {
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    u16 port = 0;
    /// Simultaneous connections ACROSS all loops; one past the limit is
    /// accepted and immediately closed (counted in refused). 0 = unlimited.
    u32 max_connections = 0;
    /// Close connections with no read/write activity for this long.
    /// 0 = never.
    std::chrono::milliseconds idle_timeout{0};
    /// Event-loop threads. 1 = the classic single loop on the caller's
    /// thread. N > 1: run() spawns N-1 named threads and drives loop 0
    /// itself; accepts spread via per-loop SO_REUSEPORT listeners.
    u32 loops = 1;
};

namespace detail {
struct Conn;
struct Loop;
}  // namespace detail

class Daemon {
public:
    /// Binds + listens (one SO_REUSEPORT listener per loop when loops > 1)
    /// + sets up epoll and the drain eventfds; registers daemon_* metrics
    /// in server.metrics(). Throws NetError{daemon_error} if any of that
    /// fails. The server must outlive the daemon.
    Daemon(serve::ContentServer& server, DaemonOptions opt = {});
    /// Same loop machinery fronting a ShardedServer: every request
    /// dispatches through the consistent-hash ring, "!metrics" answers
    /// from the router's registry (which then carries daemon_* and
    /// shard_* side by side). The router must outlive the daemon.
    Daemon(serve::ShardedServer& router, DaemonOptions opt = {});
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// The port actually bound (resolves opt.port == 0). Shared by every
    /// loop listener.
    u16 port() const noexcept { return port_; }

    /// Run the event loop(s) until a drain completes. Call from the
    /// thread that owns the daemon; everything else may only call
    /// begin_drain(). Spawns loops-1 threads when DaemonOptions::loops>1.
    void run();

    /// Request a graceful drain. Async-signal-safe (an atomic store plus
    /// one write() per loop eventfd) and callable from any thread;
    /// idempotent.
    void begin_drain() noexcept;

    /// Point-in-time copy of the daemon's own counters (the same values
    /// the daemon_* registry metrics expose). Aggregated over all loops.
    struct Stats {
        u64 accepted = 0;
        /// Accepted and closed at once: over max_connections, or at the
        /// process fd limit.
        u64 refused = 0;
        u64 requests = 0;   ///< frames dispatched (v1 and v2 alike)
        u64 streamed = 0;   ///< of which answered as a v2 stream
        u64 idle_closed = 0;
        u64 protocol_errors = 0;
        u64 drains = 0;
        u64 connections = 0;       ///< currently open (all loops)
        u64 peak_connections = 0;
        /// High-water mark of one connection's owned bytes (outbound
        /// buffer + reader buffer) — the number the slow-reader test holds
        /// against O(max_frame).
        u64 conn_buffer_peak_bytes = 0;
        u64 loops = 0;            ///< event-loop thread count
        u64 loop_wakeups = 0;     ///< epoll_wait returns across loops
    };
    Stats stats() const noexcept;

private:
    struct AtomicStats;
    /// The serving backend: its serve_frame(), one call per request
    /// frame, type-erased so one loop implementation fronts a single
    /// ContentServer or a ShardedServer identically.
    struct Backend {
        std::function<serve::ServeStream(std::span<const u8>)> serve_frame;
        obs::MetricsRegistry* metrics = nullptr;
    };

    Daemon(Backend backend, DaemonOptions opt);

    void loop_run(detail::Loop& lp);
    void accept_ready(detail::Loop& lp);
    /// Admit an accepted fd into the loop, or refuse it over max_connections.
    void adopt_fd(detail::Loop& lp, int fd);
    /// Flush, frame the next reply frame or serve the next request, and
    /// read at most once when `readable` (the epoll report's EPOLLIN).
    void service(detail::Loop& lp, detail::Conn& c, bool readable);
    /// Send until EAGAIN. false: conn died.
    bool flush_out(detail::Loop& lp, detail::Conn& c);
    bool read_once(detail::Loop& lp, detail::Conn& c);  ///< false: conn died
    /// Frame the next reply frame, or serve the reader's next request.
    void pump_output(detail::Loop& lp, detail::Conn& c);
    void update_interest(detail::Loop& lp, detail::Conn& c);
    void close_conn(detail::Loop& lp, int fd);
    void start_drain(detail::Loop& lp);
    void sweep_idle(detail::Loop& lp);
    int loop_timeout_ms() const;
    void init_metrics();

    Backend backend_;
    DaemonOptions opt_;
    u16 port_ = 0;
    std::vector<std::unique_ptr<detail::Loop>> loops_;
    /// Loop wake eventfds, fixed at construction so begin_drain() touches
    /// no allocating or locking path.
    std::vector<int> wake_fds_;
    std::atomic<bool> drain_requested_{false};
    std::atomic<bool> drain_counted_{false};
    std::shared_ptr<AtomicStats> stats_;
};

}  // namespace recoil::net
