#include "net/daemon.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/named_threads.hpp"

#ifdef __linux__
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace recoil::net {

struct Daemon::AtomicStats {
    std::atomic<u64> accepted{0};
    std::atomic<u64> refused{0};
    std::atomic<u64> requests{0};
    std::atomic<u64> streamed{0};
    std::atomic<u64> idle_closed{0};
    std::atomic<u64> protocol_errors{0};
    std::atomic<u64> drains{0};
    std::atomic<u64> connections{0};
    std::atomic<u64> peak_connections{0};
    std::atomic<u64> conn_buffer_peak{0};
    std::atomic<u64> loop_wakeups{0};

    void note_peak_buffer(u64 owned) noexcept {
        u64 cur = conn_buffer_peak.load(std::memory_order_relaxed);
        while (owned > cur &&
               !conn_buffer_peak.compare_exchange_weak(
                   cur, owned, std::memory_order_relaxed)) {
        }
    }
    void note_peak_connections(u64 open) noexcept {
        u64 cur = peak_connections.load(std::memory_order_relaxed);
        while (open > cur &&
               !peak_connections.compare_exchange_weak(
                   cur, open, std::memory_order_relaxed)) {
        }
    }
};

#ifdef __linux__

namespace detail {

/// Per-connection state machine. Owned memory is the outbound buffer (at
/// most one transport-framed reply frame), the FrameReader's partial
/// inbound frame, and queued complete request frames — each piece
/// individually bounded, and reads stop while any reply is in flight, so
/// the total stays O(max_frame).
struct Conn {
    Fd fd;
    FrameReader reader;
    std::vector<u8> out;
    std::size_t out_off = 0;
    std::deque<std::vector<u8>> pending;
    std::size_t pending_bytes = 0;
    std::optional<serve::ServeStream> stream;  ///< the reply in flight
    bool readable = false;
    bool writable = true;  ///< fresh sockets are writable until EAGAIN says not
    bool rd_eof = false;
    u32 interest = 0;  ///< currently registered epoll interest mask
    std::chrono::steady_clock::time_point last_activity;

    explicit Conn(Fd f, u32 max_frame)
        : fd(std::move(f)),
          reader(max_frame),
          last_activity(std::chrono::steady_clock::now()) {}

    bool out_pending() const noexcept { return out_off < out.size(); }
    bool quiesced() const noexcept {
        return !out_pending() && !stream && pending.empty();
    }
    u64 owned_bytes() const noexcept {
        return static_cast<u64>(out.size() - out_off) +
               reader.buffered_bytes() + pending_bytes;
    }
};

/// Per-loop counters behind a shared_ptr, so the `loop="i"` registry
/// callbacks keep polling valid memory even if the registry outlives the
/// daemon (same contract as the daemon-wide AtomicStats block).
struct LoopStats {
    std::atomic<u64> accepted{0};
    std::atomic<u64> requests{0};
    std::atomic<u64> connections{0};
};

/// One event loop: its own listener on the shared port, epoll fd,
/// connection table and drain eventfd.
struct Loop {
    u32 index = 0;
    Fd listen_fd;
    Fd epoll_fd;
    Fd wake_fd;
    bool draining = false;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::chrono::steady_clock::time_point last_idle_sweep =
        std::chrono::steady_clock::now();
    std::shared_ptr<LoopStats> lstats = std::make_shared<LoopStats>();
};

}  // namespace detail

using detail::Conn;
using detail::Loop;

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Queued-but-undispatched request frames per connection before the loop
/// stops reading (pipelining bound; reads resume as the queue drains).
constexpr std::size_t kMaxPendingRequests = 64;
/// Inbound transport-frame cap. Request frames are small; this only bounds
/// what a hostile peer can make a connection buffer.
constexpr u32 kMaxRequestFrame = 1u << 20;

std::string errno_str(const char* op) {
    return std::string(op) + ": " + std::strerror(errno);
}

[[noreturn]] void daemon_fail(const char* op) {
    net_fail(NetErrorCode::daemon_error, errno_str(op));
}

struct ListenResult {
    Fd fd;
    u16 port = 0;
};

/// Bind + listen (with SO_REUSEPORT when the port is shared by several
/// loops) and resolve the bound port; throws NetError{daemon_error}.
ListenResult listen_on(const std::string& address, u16 port, bool reuseport) {
    struct addrinfo hints {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo* res = nullptr;
    const std::string port_str = std::to_string(port);
    const std::string where = address + ":" + port_str;
    if (::getaddrinfo(address.c_str(), port_str.c_str(), &hints, &res) != 0)
        net_fail(NetErrorCode::daemon_error, "cannot resolve " + where);
    ListenResult out;
    for (struct addrinfo* ai = res; ai; ai = ai->ai_next) {
        Fd fd(::socket(ai->ai_family,
                       ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       ai->ai_protocol));
        if (!fd.valid()) continue;
        int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (reuseport &&
            ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                         sizeof(one)) != 0)
            continue;
        if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) continue;
        if (::listen(fd.get(), SOMAXCONN) != 0) continue;
        out.fd = std::move(fd);
        break;
    }
    ::freeaddrinfo(res);
    if (!out.fd.valid())
        net_fail(NetErrorCode::daemon_error,
                 "cannot bind/listen on " + where +
                     (reuseport ? " with SO_REUSEPORT" : ""));
    struct sockaddr_storage ss {};
    socklen_t slen = sizeof(ss);
    if (::getsockname(out.fd.get(), reinterpret_cast<struct sockaddr*>(&ss),
                      &slen) != 0)
        daemon_fail("getsockname");
    if (ss.ss_family == AF_INET)
        out.port = ntohs(reinterpret_cast<struct sockaddr_in*>(&ss)->sin_port);
    else if (ss.ss_family == AF_INET6)
        out.port =
            ntohs(reinterpret_cast<struct sockaddr_in6*>(&ss)->sin6_port);
    return out;
}

}  // namespace

Daemon::Daemon(Backend backend, DaemonOptions opt)
    : backend_(std::move(backend)),
      opt_(std::move(opt)),
      stats_(std::make_shared<AtomicStats>()) {
    if (opt_.loops == 0) opt_.loops = 1;
    const u32 nloops = opt_.loops;
    const bool reuseport = nloops > 1;

    loops_.reserve(nloops);
    for (u32 i = 0; i < nloops; ++i) {
        auto lp = std::make_unique<Loop>();
        lp->index = i;
        // Loop 0 resolves opt.port (which may be 0); the others bind the
        // port it got.
        ListenResult l = listen_on(opt_.bind_address,
                                   i == 0 ? opt_.port : port_, reuseport);
        if (i == 0) port_ = l.port;
        lp->listen_fd = std::move(l.fd);
        lp->epoll_fd = Fd(::epoll_create1(EPOLL_CLOEXEC));
        if (!lp->epoll_fd.valid()) daemon_fail("epoll_create1");
        lp->wake_fd = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
        if (!lp->wake_fd.valid()) daemon_fail("eventfd");
        for (const int fd : {lp->wake_fd.get(), lp->listen_fd.get()}) {
            struct epoll_event ev {};
            ev.events = EPOLLIN;
            ev.data.fd = fd;
            if (::epoll_ctl(lp->epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
                daemon_fail("epoll_ctl");
        }
        wake_fds_.push_back(lp->wake_fd.get());
        loops_.push_back(std::move(lp));
    }
    init_metrics();
}

void Daemon::init_metrics() {
    // daemon_* metrics poll the shared stats block — callbacks stay valid
    // even if the registry outlives this daemon.
    auto& m = *backend_.metrics;
    auto s = stats_;
    using obs::MetricKind;
    m.register_callback("daemon_accepted_total", MetricKind::counter,
                        [s] { return s->accepted.load(); });
    m.register_callback("daemon_refused_total", MetricKind::counter,
                        [s] { return s->refused.load(); });
    m.register_callback("daemon_requests_total", MetricKind::counter,
                        [s] { return s->requests.load(); });
    m.register_callback("daemon_streamed_total", MetricKind::counter,
                        [s] { return s->streamed.load(); });
    m.register_callback("daemon_idle_closed_total", MetricKind::counter,
                        [s] { return s->idle_closed.load(); });
    m.register_callback("daemon_protocol_errors_total", MetricKind::counter,
                        [s] { return s->protocol_errors.load(); });
    m.register_callback("daemon_drains_total", MetricKind::counter,
                        [s] { return s->drains.load(); });
    m.register_callback("daemon_connections", MetricKind::gauge,
                        [s] { return s->connections.load(); });
    m.register_callback("daemon_peak_connections", MetricKind::gauge,
                        [s] { return s->peak_connections.load(); });
    m.register_callback("daemon_conn_buffer_peak_bytes", MetricKind::gauge,
                        [s] { return s->conn_buffer_peak.load(); });
    // Multi-loop surface. The daemon-wide series exist at every loop
    // count (a single-loop daemon reports loops=1) so the frozen-name
    // checks hold for any scrape.
    const u64 nloops = loops_.size();
    m.register_callback("daemon_loops", MetricKind::gauge,
                        [nloops] { return nloops; });
    m.register_callback("daemon_loop_wakeups_total", MetricKind::counter,
                        [s] { return s->loop_wakeups.load(); });
    // Per-loop series join the EXISTING families under a `loop="i"` label
    // (the labeled series sum to the unlabeled aggregate).
    for (const auto& lp : loops_) {
        const std::string label =
            "loop=\"" + std::to_string(lp->index) + "\"";
        auto ls = lp->lstats;
        m.register_callback("daemon_accepted_total", label,
                            MetricKind::counter,
                            [ls] { return ls->accepted.load(); });
        m.register_callback("daemon_requests_total", label,
                            MetricKind::counter,
                            [ls] { return ls->requests.load(); });
        m.register_callback("daemon_connections", label, MetricKind::gauge,
                            [ls] { return ls->connections.load(); });
    }
}

void Daemon::begin_drain() noexcept {
    // Async-signal-safe: one atomic store plus one write() per loop
    // eventfd (wake_fds_ is immutable after construction). A full counter
    // only means a wake is already pending.
    drain_requested_.store(true, std::memory_order_release);
    const u64 one = 1;
    for (int fd : wake_fds_) {
        [[maybe_unused]] ssize_t rc = ::write(fd, &one, sizeof(one));
    }
}

void Daemon::start_drain(Loop& lp) {
    if (lp.draining) return;
    lp.draining = true;
    if (!drain_counted_.exchange(true, std::memory_order_relaxed))
        stats_->drains.fetch_add(1, std::memory_order_relaxed);
    if (lp.listen_fd.valid()) {
        ::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_DEL, lp.listen_fd.get(),
                    nullptr);
        lp.listen_fd.reset();  // new connects now refused by the kernel
    }
    // Quiesced connections (nothing received, nothing in flight) close
    // now; the rest finish their streams/queued requests and flush.
    std::vector<int> fds;
    fds.reserve(lp.conns.size());
    for (auto& [fd, c] : lp.conns) fds.push_back(fd);
    for (int fd : fds) {
        auto it = lp.conns.find(fd);
        if (it != lp.conns.end()) service(lp, *it->second);
    }
}

void Daemon::adopt_fd(Loop& lp, int fd) {
    // Reserve the slot before admitting: loops adopt concurrently, and a
    // check-then-increment would let two of them pass a full limit.
    const u64 open =
        stats_->connections.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opt_.max_connections != 0 && open > opt_.max_connections) {
        stats_->connections.fetch_sub(1, std::memory_order_relaxed);
        stats_->refused.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);  // deterministic EOF for the peer
        return;
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>(Fd(fd), kMaxRequestFrame);
    struct epoll_event ev {};
    ev.data.fd = fd;
    ev.events = EPOLLIN;
    conn->interest = EPOLLIN;
    if (::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
        stats_->connections.fetch_sub(1, std::memory_order_relaxed);
        return;  // conn closes via Fd dtor
    }
    lp.conns.emplace(fd, std::move(conn));
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
    lp.lstats->accepted.fetch_add(1, std::memory_order_relaxed);
    lp.lstats->connections.fetch_add(1, std::memory_order_relaxed);
    stats_->note_peak_connections(open);
}

void Daemon::accept_ready(Loop& lp) {
    for (;;) {
        int fd = ::accept4(lp.listen_fd.get(), nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd >= 0) {
            adopt_fd(lp, fd);
            continue;
        }
        if (errno == EINTR) continue;
        break;  // EAGAIN, or transient (ECONNABORTED, EMFILE, ...)
    }
}

void Daemon::close_conn(Loop& lp, int fd) {
    auto it = lp.conns.find(fd);
    if (it == lp.conns.end()) return;
    ::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
    lp.conns.erase(it);
    stats_->connections.fetch_sub(1, std::memory_order_relaxed);
    lp.lstats->connections.fetch_sub(1, std::memory_order_relaxed);
}

bool Daemon::flush_out(Loop& lp, Conn& c) {
    while (c.out_pending() && c.writable) {
        ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            c.out_off += static_cast<std::size_t>(n);
            c.last_activity = std::chrono::steady_clock::now();
            if (!c.out_pending()) {
                c.out.clear();
                c.out_off = 0;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            c.writable = false;
            return true;
        }
        if (n < 0 && errno == EINTR) continue;
        close_conn(lp, c.fd.get());  // EPIPE/ECONNRESET/anything else
        return false;
    }
    return true;
}

bool Daemon::read_ready(Loop& lp, Conn& c) {
    u8 buf[kReadChunk];
    const bool willing = !lp.draining && !c.rd_eof && !c.out_pending() &&
                         !c.stream && c.pending.size() < kMaxPendingRequests;
    while (willing && c.readable) {
        ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
        if (n > 0) {
            c.last_activity = std::chrono::steady_clock::now();
            try {
                c.reader.feed(std::span<const u8>(buf,
                                                  static_cast<std::size_t>(n)));
            } catch (const NetError&) {
                stats_->protocol_errors.fetch_add(1,
                                                  std::memory_order_relaxed);
                close_conn(lp, c.fd.get());
                return false;
            }
            while (auto frame = c.reader.next()) {
                c.pending_bytes += frame->size();
                c.pending.push_back(std::move(*frame));
            }
            stats_->note_peak_buffer(c.owned_bytes());
            // Stop pulling more off the wire once enough work is queued;
            // the kernel buffers, readable stays set, reads resume later.
            if (c.pending.size() >= kMaxPendingRequests) break;
            continue;
        }
        if (n == 0) {
            c.rd_eof = true;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            c.readable = false;
            return true;
        }
        if (errno == EINTR) continue;
        close_conn(lp, c.fd.get());
        return false;
    }
    return true;
}

void Daemon::dispatch(Loop& lp, Conn& c, const std::vector<u8>& frame) {
    stats_->requests.fetch_add(1, std::memory_order_relaxed);
    lp.lstats->requests.fetch_add(1, std::memory_order_relaxed);
    // The serve layer reads the frame and builds the whole reply here, on
    // the loop thread (a cold combine, or the wait for another request's);
    // the loop then only moves the reply's frames.
    c.stream.emplace(backend_.serve_frame(frame));
    if (c.stream->streamed())
        stats_->streamed.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::pump_output(Loop& lp, Conn& c) {
    // Only generate into an empty outbound buffer: one frame in flight per
    // connection is the memory bound AND the backpressure (a stream's next
    // frame is not even framed until the previous one fully flushed).
    while (!c.out_pending()) {
        if (c.stream) {
            if (auto frame = c.stream->next_frame()) {
                append_net_frame(c.out, *frame);
                stats_->note_peak_buffer(c.owned_bytes());
                return;
            }
            c.stream.reset();  // reply complete
            continue;
        }
        if (!c.pending.empty()) {
            std::vector<u8> frame = std::move(c.pending.front());
            c.pending.pop_front();
            c.pending_bytes -= frame.size();
            dispatch(lp, c, frame);
            continue;
        }
        return;  // nothing to do
    }
}

void Daemon::update_interest(Loop& lp, Conn& c) {
    u32 want = 0;
    const bool want_read = !lp.draining && !c.rd_eof && !c.out_pending() &&
                           !c.stream &&
                           c.pending.size() < kMaxPendingRequests;
    if (want_read) want |= EPOLLIN;
    if (c.out_pending()) want |= EPOLLOUT;
    if (want == c.interest) return;
    struct epoll_event ev {};
    ev.events = want;
    ev.data.fd = c.fd.get();
    if (::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) == 0)
        c.interest = want;
}

void Daemon::service(Loop& lp, Conn& c) {
    const int fd = c.fd.get();
    for (;;) {
        if (!flush_out(lp, c)) return;  // c is gone
        if (!c.out_pending()) {
            pump_output(lp, c);
            if (c.out_pending()) continue;  // new frame: try to flush it
        }
        if (!read_ready(lp, c)) return;  // c is gone
        // Progress is possible only if a queued request can dispatch into
        // the now-empty buffer or fresh bytes arrived; both looped above.
        if (c.out_pending() || c.stream || !c.pending.empty()) {
            if (c.out_pending() && !c.writable) break;  // wait for EPOLLOUT
            if (!c.out_pending() && !c.stream && !c.pending.empty())
                continue;  // dispatch next queued request
            if (c.stream && !c.out_pending()) continue;  // pull next frame
            break;
        }
        // Fully quiesced.
        if (c.rd_eof || lp.draining) {
            close_conn(lp, fd);
            return;
        }
        if (!c.readable) break;  // wait for bytes
        // readable but unwilling can't happen here (quiesced => willing),
        // so looping again makes progress; but guard against surprises.
        break;
    }
    stats_->note_peak_buffer(c.owned_bytes());
    update_interest(lp, c);
}

void Daemon::sweep_idle(Loop& lp) {
    if (opt_.idle_timeout.count() <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    if (now - lp.last_idle_sweep < opt_.idle_timeout / 4) return;
    lp.last_idle_sweep = now;
    std::vector<int> victims;
    for (auto& [fd, c] : lp.conns) {
        if (now - c->last_activity >= opt_.idle_timeout) victims.push_back(fd);
    }
    for (int fd : victims) {
        stats_->idle_closed.fetch_add(1, std::memory_order_relaxed);
        close_conn(lp, fd);
    }
}

int Daemon::loop_timeout_ms() const {
    if (opt_.idle_timeout.count() > 0) {
        auto quarter = opt_.idle_timeout.count() / 4;
        return static_cast<int>(std::clamp<long long>(quarter, 10, 200));
    }
    return 500;
}

void Daemon::loop_run(Loop& lp) {
    std::array<struct epoll_event, 256> events;
    while (!lp.draining || !lp.conns.empty()) {
        int n = ::epoll_wait(lp.epoll_fd.get(), events.data(),
                             static_cast<int>(events.size()),
                             loop_timeout_ms());
        if (n < 0) {
            if (errno == EINTR) continue;
            daemon_fail("epoll_wait");
        }
        stats_->loop_wakeups.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const u32 ev = events[i].events;
            if (lp.listen_fd.valid() && fd == lp.listen_fd.get()) {
                accept_ready(lp);
                continue;
            }
            if (fd == lp.wake_fd.get()) {
                u64 tick = 0;
                while (::read(lp.wake_fd.get(), &tick, sizeof(tick)) > 0) {
                }
                if (drain_requested_.load(std::memory_order_acquire))
                    start_drain(lp);
                continue;
            }
            auto it = lp.conns.find(fd);
            if (it == lp.conns.end()) continue;
            Conn& c = *it->second;
            if (ev & (EPOLLERR | EPOLLHUP)) {
                // Peer is gone for good (HUP = both directions). A
                // half-close shows up as EPOLLIN + recv()==0 instead and
                // keeps flowing through the normal path.
                close_conn(lp, fd);
                continue;
            }
            if (ev & EPOLLIN) c.readable = true;
            if (ev & EPOLLOUT) c.writable = true;
            service(lp, c);
        }
        // Belt-and-braces: a drain flagged between wake writes still gets
        // picked up on the next timeout tick.
        if (!lp.draining &&
            drain_requested_.load(std::memory_order_acquire))
            start_drain(lp);
        sweep_idle(lp);
    }
}

void Daemon::run() {
    if (loops_.size() <= 1) {
        loop_run(*loops_[0]);
        return;
    }
    // Loops 1..N-1 each get a dedicated named thread (they BLOCK in
    // epoll_wait); loop 0 runs on the caller's thread, preserving the
    // single-loop contract that run() occupies the thread that owns the
    // daemon.
    util::NamedThreads threads;
    for (std::size_t i = 1; i < loops_.size(); ++i) {
        Loop* lp = loops_[i].get();
        threads.spawn("recoil-net", static_cast<unsigned>(i),
                      [this, lp] { loop_run(*lp); });
    }
    loop_run(*loops_[0]);
    threads.join_all();
}

#else  // !__linux__

namespace detail {
struct Conn {};
struct Loop {};
}  // namespace detail

Daemon::Daemon(Backend backend, DaemonOptions opt)
    : backend_(std::move(backend)),
      opt_(std::move(opt)),
      stats_(std::make_shared<AtomicStats>()) {
    net_fail(NetErrorCode::daemon_error,
             "recoil_served requires Linux (epoll)");
}
void Daemon::run() {}
void Daemon::begin_drain() noexcept {}
void Daemon::loop_run(detail::Loop&) {}
void Daemon::accept_ready(detail::Loop&) {}
void Daemon::adopt_fd(detail::Loop&, int) {}
void Daemon::service(detail::Loop&, detail::Conn&) {}
bool Daemon::flush_out(detail::Loop&, detail::Conn&) { return false; }
bool Daemon::read_ready(detail::Loop&, detail::Conn&) { return false; }
void Daemon::pump_output(detail::Loop&, detail::Conn&) {}
void Daemon::dispatch(detail::Loop&, detail::Conn&, const std::vector<u8>&) {}
void Daemon::update_interest(detail::Loop&, detail::Conn&) {}
void Daemon::close_conn(detail::Loop&, int) {}
void Daemon::start_drain(detail::Loop&) {}
void Daemon::sweep_idle(detail::Loop&) {}
int Daemon::loop_timeout_ms() const { return 0; }
void Daemon::init_metrics() {}

#endif

Daemon::Daemon(serve::ContentServer& server, DaemonOptions opt)
    : Daemon(Backend{[&server](std::span<const u8> f) {
                         return server.serve_frame(f);
                     },
                     &server.metrics()},
             std::move(opt)) {}

Daemon::Daemon(serve::ShardedServer& router, DaemonOptions opt)
    : Daemon(Backend{[&router](std::span<const u8> f) {
                         return router.serve_frame(f);
                     },
                     &router.metrics()},
             std::move(opt)) {}

Daemon::~Daemon() = default;

Daemon::Stats Daemon::stats() const noexcept {
    const AtomicStats& s = *stats_;
    Stats out;
    out.accepted = s.accepted.load(std::memory_order_relaxed);
    out.refused = s.refused.load(std::memory_order_relaxed);
    out.requests = s.requests.load(std::memory_order_relaxed);
    out.streamed = s.streamed.load(std::memory_order_relaxed);
    out.idle_closed = s.idle_closed.load(std::memory_order_relaxed);
    out.protocol_errors = s.protocol_errors.load(std::memory_order_relaxed);
    out.drains = s.drains.load(std::memory_order_relaxed);
    out.connections = s.connections.load(std::memory_order_relaxed);
    out.peak_connections = s.peak_connections.load(std::memory_order_relaxed);
    out.conn_buffer_peak_bytes =
        s.conn_buffer_peak.load(std::memory_order_relaxed);
    out.loops = static_cast<u64>(loops_.size());
    out.loop_wakeups = s.loop_wakeups.load(std::memory_order_relaxed);
    return out;
}

}  // namespace recoil::net
