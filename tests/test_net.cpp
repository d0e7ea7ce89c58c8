// Tests for the network subsystem: the length-prefixed transport framing,
// the epoll daemon, and the client library — over real loopback sockets.
// Anchors: (1) every response that crosses the socket is bit-exact with the
// in-process serve() result, for v1 materialized, v2 streamed, and range
// requests, under 1000+ concurrent connections; (2) a slow reader cannot
// make the daemon buffer more than O(max_frame) per connection (the
// pull-when-writable backpressure holds over a real socket); (3) a drain
// started mid-stream finishes the stream bit-exactly, refuses new
// connects, and lets run() return; (4) frame reassembly survives arbitrary
// read fragmentation — a TCP segment boundary anywhere, including inside
// the length prefix, must never surface as a protocol error; (5) the daemon
// only moves bytes: over a socket, every kind of request frame gets the
// reply serve_frame() gives in process, framed the same way.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "serve/store.hpp"
#include "workload/datasets.hpp"

#if defined(__SANITIZE_THREAD__)
#define RECOIL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RECOIL_TSAN 1
#endif
#endif

namespace recoil::net {
namespace {

using serve::ContentServer;
using serve::ServeRequest;
using serve::ServeResult;

// The load test holds >2000 sockets open at once (client + daemon ends);
// GitHub runners default the soft RLIMIT_NOFILE to 1024.
struct RaiseNofile {
    RaiseNofile() {
        struct rlimit rl {};
        if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < 65536) {
            rl.rlim_cur = rl.rlim_max < 65536 ? rl.rlim_max : 65536;
            ::setrlimit(RLIMIT_NOFILE, &rl);
        }
    }
};
const RaiseNofile raise_nofile_once;

/// Daemon on a background thread; joins (after a drain) on destruction.
struct DaemonRunner {
    Daemon daemon;
    std::thread th;

    /// Fronts a ContentServer or a ShardedServer.
    template <class Backend>
    DaemonRunner(Backend& backend, DaemonOptions opt)
        : daemon(backend, std::move(opt)), th([this] { daemon.run(); }) {}
    ~DaemonRunner() { drain_and_join(); }

    void drain_and_join() {
        if (th.joinable()) {
            daemon.begin_drain();
            th.join();
        }
    }
};

constexpr u64 kAssetBytes = 200'000;

struct NetFixture : ::testing::Test {
    ContentServer server;
    std::vector<u8> data;

    NetFixture() : data(workload::gen_text(kAssetBytes, 424242)) {
        server.store().encode_bytes("asset", data, 64);
    }

    /// The fixture's asset on a server that streams at `max_frame`-byte
    /// body frames.
    std::unique_ptr<ContentServer> server_at(u64 max_frame) {
        serve::ServerOptions opt;
        opt.max_frame_bytes = max_frame;
        auto s = std::make_unique<ContentServer>(opt);
        s->store().encode_bytes("asset", data, 64);
        return s;
    }

    ServeResult in_process(const ServeRequest& req) {
        ServeResult res = server.serve(req);
        EXPECT_TRUE(res.ok()) << res.detail;
        return res;
    }
};

// ---- transport framing ----

TEST(FrameReader, ByteAtATimeFeedNeverMisparses) {
    // Frames of awkward sizes, including empty — delivered one byte at a
    // time, every frame must pop exactly at its boundary, never early.
    const std::vector<std::vector<u8>> frames = {
        {},
        {0xab},
        std::vector<u8>(3, 0x01),
        std::vector<u8>(259, 0x7f),
        std::vector<u8>(65537, 0x55),
    };
    std::vector<u8> wire;
    for (const auto& f : frames) append_net_frame(wire, f);

    FrameReader reader;
    std::size_t popped = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        reader.feed(std::span<const u8>(&wire[i], 1));
        while (auto f = reader.next()) {
            ASSERT_LT(popped, frames.size());
            EXPECT_EQ(*f, frames[popped]) << "frame " << popped;
            ++popped;
        }
    }
    EXPECT_EQ(popped, frames.size());
    EXPECT_TRUE(reader.empty());
}

TEST(FrameReader, ChunkedFeedsOfEveryGranularityAgree) {
    std::vector<u8> payload(10'000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<u8>(i * 31);
    std::vector<u8> wire;
    append_net_frame(wire, payload);
    append_net_frame(wire, payload);
    for (std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 4096u, 100'000u}) {
        FrameReader reader;
        std::size_t popped = 0;
        for (std::size_t off = 0; off < wire.size(); off += chunk) {
            const std::size_t n = std::min(chunk, wire.size() - off);
            reader.feed(std::span<const u8>(wire.data() + off, n));
            while (auto f = reader.next()) {
                EXPECT_EQ(*f, payload);
                ++popped;
            }
        }
        EXPECT_EQ(popped, 2u) << "chunk " << chunk;
    }
}

TEST(FrameReader, OversizedAnnouncementRejectedAtPrefixTime) {
    FrameReader reader(1024);
    // 4-byte prefix announcing 1 MiB: must throw the moment the prefix is
    // complete, before any payload arrives.
    const u8 prefix[4] = {0x00, 0x00, 0x10, 0x00};
    reader.feed(std::span<const u8>(prefix, 3));
    EXPECT_THROW(reader.feed(std::span<const u8>(prefix + 3, 1)), NetError);
}

TEST(FrameReader, ThousandsOfFramesInOneFeedThenASplitFrame) {
    // Pipelined small requests arrive many to a read: popping them must
    // yield each in order (a pop advances a read offset; feed() compacts),
    // and a frame straddling two feeds must still reassemble.
    constexpr u32 kFrames = 5000;
    std::vector<u8> wire;
    for (u32 i = 0; i < kFrames; ++i) {
        std::vector<u8> f(35, static_cast<u8>(i));
        for (int b = 0; b < 4; ++b) f[b] = static_cast<u8>(i >> (8 * b));
        append_net_frame(wire, f);
    }
    const std::vector<u8> last(1000, 0x5a);
    std::vector<u8> tail;
    append_net_frame(tail, last);
    wire.insert(wire.end(), tail.begin(), tail.begin() + 500);

    FrameReader reader;
    reader.feed(wire);
    for (u32 i = 0; i < kFrames; ++i) {
        auto f = reader.next();
        ASSERT_TRUE(f) << "frame " << i;
        ASSERT_EQ(f->size(), 35u);
        u32 id = 0;
        for (int b = 0; b < 4; ++b) id |= u32{(*f)[b]} << (8 * b);
        ASSERT_EQ(id, i);
        ASSERT_EQ(f->back(), static_cast<u8>(i));
    }
    EXPECT_FALSE(reader.next());
    EXPECT_FALSE(reader.empty());
    EXPECT_EQ(reader.buffered_bytes(), 500u);
    reader.feed(std::span<const u8>(tail).subspan(500));
    auto f = reader.next();
    ASSERT_TRUE(f);
    EXPECT_EQ(*f, last);
    EXPECT_FALSE(reader.next());
    EXPECT_TRUE(reader.empty());
}

TEST(FrameReader, OversizedPrefixBehindAPoppedFrameIsRejected) {
    // The bound applies to the next unread prefix, not to a frame already
    // popped from the front of the buffer.
    FrameReader reader(1024);
    std::vector<u8> wire;
    append_net_frame(wire, std::vector<u8>(10, 0x01));
    const u8 prefix[4] = {0x00, 0x00, 0x10, 0x00};  // announces 1 MiB
    wire.insert(wire.end(), prefix, prefix + 3);
    reader.feed(wire);
    ASSERT_TRUE(reader.next());
    EXPECT_THROW(reader.feed(std::span<const u8>(prefix + 3, 1)), NetError);
}

TEST_F(NetFixture, StreamedFramesSurviveByteAtATimeTransport) {
    // End-to-end fragmentation torture: a full v2 stream's transport bytes
    // fed one byte at a time must reassemble bit-exactly with v1.
    const auto small = server_at(4096);
    auto stream = small->serve_stream(
        ServeRequest{"asset", 8, {}, serve::kAcceptAll | serve::kAcceptStreamed});
    std::vector<u8> wire;
    while (auto f = stream.next_frame()) append_net_frame(wire, *f);

    FrameReader reader;
    serve::StreamReassembler reasm;
    bool done = false;
    for (u8 b : wire) {
        reader.feed(std::span<const u8>(&b, 1));
        while (auto f = reader.next()) {
            ASSERT_FALSE(done) << "frames after FIN";
            done = reasm.feed(*f);
        }
    }
    ASSERT_TRUE(done);
    auto v1 = in_process(ServeRequest{"asset", 8, {}});
    EXPECT_EQ(*reasm.result().wire, *v1.wire);
}

// ---- loopback load ----

#ifdef RECOIL_TSAN
constexpr u32 kLoadThreads = 8;
constexpr u32 kLoadConnsPerThread = 8;
#else
constexpr u32 kLoadThreads = 32;
constexpr u32 kLoadConnsPerThread = 32;
#endif
constexpr u32 kLoadConns = kLoadThreads * kLoadConnsPerThread;

TEST_F(NetFixture, LoadThousandConcurrentConnectionsMixedBitExact) {
    DaemonOptions dopt;
    DaemonRunner runner(server, dopt);
    const u16 port = runner.daemon.port();

    // In-process references for every request shape the load issues.
    const u32 kPar[] = {2, 8, 16};
    std::vector<ServeResult> full_ref;
    for (u32 p : kPar) full_ref.push_back(in_process(ServeRequest{"asset", p, {}}));
    const std::pair<u64, u64> kRanges[] = {
        {0, 10'000}, {50'000, 50'100}, {kAssetBytes - 4096, kAssetBytes}};
    std::vector<ServeResult> range_ref;
    for (auto r : kRanges)
        range_ref.push_back(in_process(ServeRequest{"asset", 4, {r}}));

    // Phase 1: every thread opens all its connections, then waits at a
    // barrier — so all kLoadConns sockets are provably open at once.
    std::atomic<u32> connected{0};
    std::atomic<bool> go{false};
    std::atomic<u32> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kLoadThreads);
    for (u32 t = 0; t < kLoadThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<Client> clients;
            clients.reserve(kLoadConnsPerThread);
            ClientOptions copt;
            copt.port = port;
            copt.io_timeout = std::chrono::milliseconds(120'000);
            for (u32 i = 0; i < kLoadConnsPerThread; ++i)
                clients.emplace_back(copt);
            connected.fetch_add(kLoadConnsPerThread);
            while (!go.load()) std::this_thread::yield();
            for (u32 i = 0; i < kLoadConnsPerThread; ++i) {
                const u32 id = t * kLoadConnsPerThread + i;
                try {
                    switch (id % 3) {
                        case 0: {  // v1 materialized
                            const u32 pi = id % 3u == 0 ? (id / 3) % 3 : 0;
                            auto res = clients[i].request(
                                ServeRequest{"asset", kPar[pi], {}});
                            if (!res.ok() || *res.wire != *full_ref[pi].wire)
                                failures.fetch_add(1);
                            break;
                        }
                        case 1: {  // v1 range
                            const u32 ri = (id / 3) % 3;
                            auto res = clients[i].request(
                                ServeRequest{"asset", 4, {kRanges[ri]}});
                            if (!res.ok() || *res.wire != *range_ref[ri].wire)
                                failures.fetch_add(1);
                            break;
                        }
                        case 2: {  // v2 streamed
                            const u32 pi = (id / 3) % 3;
                            auto res = clients[i].request_streamed(
                                ServeRequest{"asset", kPar[pi], {}});
                            if (!res.ok() || *res.wire != *full_ref[pi].wire)
                                failures.fetch_add(1);
                            break;
                        }
                    }
                } catch (const Error& e) {
                    ADD_FAILURE() << "conn " << id << ": " << e.what();
                    failures.fetch_add(1);
                }
            }
        });
    }
    while (connected.load() < kLoadConns) std::this_thread::yield();
    // The kernel completes handshakes before the daemon accept4()s them:
    // wait until every connection is accepted, then assert concurrency.
    const auto accept_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (runner.daemon.stats().connections < kLoadConns &&
           std::chrono::steady_clock::now() < accept_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // All connections open simultaneously — the acceptance bar.
    EXPECT_GE(runner.daemon.stats().connections, kLoadConns);
    go.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u);

    const auto s = runner.daemon.stats();
    EXPECT_GE(s.peak_connections, kLoadConns);
    EXPECT_GE(s.accepted, kLoadConns);
    EXPECT_GE(s.requests, kLoadConns);
    EXPECT_GT(s.streamed, 0u);
}

// ---- backpressure / per-connection memory ----

TEST_F(NetFixture, SlowReaderKeepsConnBufferAtMaxFrame) {
    // Dedicated daemon with an 8 KiB stream frame budget serving a 200 KB
    // wire: a reader draining a trickle at a time must never make the
    // daemon buffer more than ~one transport-framed protocol frame.
    constexpr u64 kMaxFrame = 8 * 1024;
    const auto small = server_at(kMaxFrame);
    DaemonRunner runner(*small, {});

    Fd sock = connect_tcp("127.0.0.1", runner.daemon.port(), Deadline::none());
    std::vector<u8> framed;
    append_net_frame(framed,
                     serve::encode_request(ServeRequest{
                         "asset", 8, {}, serve::kAcceptAll |
                                             serve::kAcceptStreamed}));
    send_all(sock.get(), framed, Deadline::none());

    FrameReader reader;
    serve::StreamReassembler reasm;
    bool done = false;
    u8 buf[2048];  // small reads + a pause: a genuinely slow consumer
    while (!done) {
        const std::size_t n = recv_some(
            sock.get(), buf, Deadline::after(std::chrono::seconds(30)));
        ASSERT_GT(n, 0u) << "server closed mid-stream";
        reader.feed(std::span<const u8>(buf, n));
        while (auto f = reader.next()) {
            ASSERT_FALSE(done);
            done = reasm.feed(*f);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto v1 = in_process(ServeRequest{"asset", 8, {}});
    EXPECT_EQ(*reasm.result().wire, *v1.wire);
    ASSERT_GT(v1.wire->size(), 8 * kMaxFrame) << "asset too small to prove the bound";

    // O(max_frame), not O(wire): one stream frame (payload + protocol
    // header/trailer) + the 4-byte transport prefix + the tiny request.
    const u64 peak = runner.daemon.stats().conn_buffer_peak_bytes;
    EXPECT_LE(peak, kMaxFrame + 4096);
    EXPECT_LT(peak, v1.wire->size() / 4);
}

// ---- graceful drain ----

TEST_F(NetFixture, DrainMidStreamCompletesBitExactRefusesNewAndExits) {
    // Many frames => the drain lands mid-stream.
    const auto small = server_at(16 * 1024);
    DaemonRunner runner(*small, {});
    const u16 port = runner.daemon.port();

    Fd sock = connect_tcp("127.0.0.1", port, Deadline::none());
    std::vector<u8> framed;
    append_net_frame(framed,
                     serve::encode_request(ServeRequest{
                         "asset", 8, {}, serve::kAcceptAll |
                                             serve::kAcceptStreamed}));
    send_all(sock.get(), framed, Deadline::none());

    // Read just the first transport frame (the stream header), then drain.
    FrameReader reader;
    serve::StreamReassembler reasm;
    bool done = false;
    u8 buf[1024];
    while (!reader.buffered_bytes() && reader.empty()) {
        const std::size_t n = recv_some(
            sock.get(), buf, Deadline::after(std::chrono::seconds(30)));
        ASSERT_GT(n, 0u);
        reader.feed(std::span<const u8>(buf, n));
        break;
    }
    while (auto f = reader.next()) done = reasm.feed(*f);
    ASSERT_FALSE(done) << "stream finished before the drain could land";

    runner.daemon.begin_drain();
    // Give the loop time to process the drain and close the listener.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_THROW(
        connect_tcp("127.0.0.1", port,
                    Deadline::after(std::chrono::seconds(2))),
        NetError)
        << "new connections must be refused during drain";

    // The in-flight stream still completes, bit-exactly.
    while (!done) {
        const std::size_t n = recv_some(
            sock.get(), buf, Deadline::after(std::chrono::seconds(30)));
        ASSERT_GT(n, 0u) << "server cut the in-flight stream during drain";
        reader.feed(std::span<const u8>(buf, n));
        while (auto f = reader.next()) {
            ASSERT_FALSE(done);
            done = reasm.feed(*f);
        }
    }
    auto v1 = in_process(ServeRequest{"asset", 8, {}});
    EXPECT_EQ(*reasm.result().wire, *v1.wire);

    // With the stream flushed, the loop closes the connection and exits.
    runner.drain_and_join();
    const auto s = runner.daemon.stats();
    EXPECT_EQ(s.drains, 1u);
    EXPECT_EQ(s.connections, 0u);
}

// ---- limits & hygiene ----

TEST_F(NetFixture, ConnectionLimitRefusesDeterministically) {
    DaemonOptions dopt;
    dopt.max_connections = 4;
    DaemonRunner runner(server, dopt);
    ClientOptions copt;
    copt.port = runner.daemon.port();

    std::vector<Client> keep;
    for (int i = 0; i < 4; ++i) keep.emplace_back(copt);
    // Over-limit connections are accepted then closed: the request sees a
    // clean EOF (typed closed), not a hang.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    u32 refused = 0;
    for (int i = 0; i < 4; ++i) {
        try {
            Client extra(copt);
            extra.request(ServeRequest{"asset", 2, {}});
        } catch (const NetError& e) {
            EXPECT_EQ(e.code(), NetErrorCode::closed);
            ++refused;
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GE(runner.daemon.stats().refused, refused);
    // The in-limit connections still work.
    auto res = keep[0].request(ServeRequest{"asset", 2, {}});
    EXPECT_TRUE(res.ok()) << res.detail;
}

TEST_F(NetFixture, IdleConnectionsAreClosed) {
    DaemonOptions dopt;
    dopt.idle_timeout = std::chrono::milliseconds(100);
    DaemonRunner runner(server, dopt);

    Fd sock = connect_tcp("127.0.0.1", runner.daemon.port(), Deadline::none());
    u8 buf[64];
    // recv_some returns 0 on orderly EOF — the idle sweep's close.
    const std::size_t n =
        recv_some(sock.get(), buf, Deadline::after(std::chrono::seconds(10)));
    EXPECT_EQ(n, 0u);
    EXPECT_GE(runner.daemon.stats().idle_closed, 1u);
}

TEST_F(NetFixture, HostileTransportFrameClosesConnection) {
    DaemonOptions dopt;
    DaemonRunner runner(server, dopt);
    Fd sock = connect_tcp("127.0.0.1", runner.daemon.port(), Deadline::none());
    // Announce a 2 GiB frame: the daemon must reject at prefix time and
    // close, not allocate.
    const u8 prefix[4] = {0x00, 0x00, 0x00, 0x80};
    send_all(sock.get(), prefix, Deadline::none());
    u8 buf[64];
    const std::size_t n =
        recv_some(sock.get(), buf, Deadline::after(std::chrono::seconds(10)));
    EXPECT_EQ(n, 0u);
    EXPECT_GE(runner.daemon.stats().protocol_errors, 1u);
}

TEST_F(NetFixture, MalformedProtocolFrameGetsTypedErrorResponse) {
    DaemonRunner runner(server, {});
    ClientOptions copt;
    copt.port = runner.daemon.port();
    Client c(copt);
    // A well-delimited transport frame holding garbage: serve_frame turns
    // it into a typed v1 error response — the connection survives.
    const std::vector<u8> garbage = {'n', 'o', 'p', 'e'};
    auto resp = c.roundtrip_frame(garbage);
    auto res = serve::decode_response(resp);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.code, serve::ErrorCode::malformed_frame);
    // Same connection, real request: still served.
    auto ok = c.request(ServeRequest{"asset", 2, {}});
    EXPECT_TRUE(ok.ok()) << ok.detail;
}

TEST_F(NetFixture, MetricsScrapeOverRealSocket) {
    DaemonRunner runner(server, {});
    ClientOptions copt;
    copt.port = runner.daemon.port();
    Client c(copt);
    c.request(ServeRequest{"asset", 2, {}});
    const std::string text = c.fetch_metrics(false);
    // Daemon counters and serve-stack counters share one exposition.
    EXPECT_NE(text.find("daemon_accepted_total"), std::string::npos);
    EXPECT_NE(text.find("daemon_requests_total"), std::string::npos);
    EXPECT_NE(text.find("serve_requests_total"), std::string::npos);
    const std::string json = c.fetch_metrics(true);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("daemon_connections"), std::string::npos);
}

TEST_F(NetFixture, PipelinedRequestsAnswerInOrder) {
    DaemonRunner runner(server, {});
    Fd sock = connect_tcp("127.0.0.1", runner.daemon.port(), Deadline::none());
    // Three requests in one write; responses must come back in order on
    // the same connection.
    const u32 pars[] = {2, 8, 16};
    std::vector<u8> burst;
    for (u32 p : pars)
        append_net_frame(burst, serve::encode_request(ServeRequest{"asset", p, {}}));
    send_all(sock.get(), burst, Deadline::none());
    FrameReader reader;
    u32 got = 0;
    u8 buf[64 * 1024];
    while (got < 3) {
        const std::size_t n = recv_some(
            sock.get(), buf, Deadline::after(std::chrono::seconds(30)));
        ASSERT_GT(n, 0u);
        reader.feed(std::span<const u8>(buf, n));
        while (auto f = reader.next()) {
            auto res = serve::decode_response(*f);
            ASSERT_TRUE(res.ok()) << res.detail;
            auto ref = in_process(ServeRequest{"asset", pars[got], {}});
            EXPECT_EQ(*res.wire, *ref.wire) << "response " << got;
            ++got;
        }
    }
}

// ---- resumable streams ----

/// What a client saw of a stream it cut once, mid-stream (see cut_once).
struct StreamCut {
    u64 frames = 0;  ///< stream frames seen, the cut one included
    u64 bytes = 0;
    bool done = false;
};

/// An on_frame callback that cuts `client`'s connection once, after about
/// 24 KiB of stream frames: it shuts the socket down and throws
/// NetError{closed}. The throw is needed because on Linux a shut-down socket
/// still returns the bytes already buffered, which can be the rest of the
/// stream.
Client::FrameCallback cut_once(Client& client, StreamCut& cut) {
    return [&client, &cut](std::span<const u8> frame) {
        ++cut.frames;
        cut.bytes += frame.size();
        if (cut.done || cut.bytes < 24 * 1024) return;
        cut.done = true;
        ::shutdown(client.fd(), SHUT_RDWR);
        net_fail(NetErrorCode::closed, "connection cut mid-stream");
    };
}

TEST_F(NetFixture, MidStreamKillWithoutResumeBudgetThrows) {
    // Control for the resume test: the connection dies mid-stream; a client
    // with no resume budget must surface the transport failure, not
    // fabricate a result.
    const auto small = server_at(8 * 1024);
    DaemonRunner runner(*small, {});
    ClientOptions copt;
    copt.port = runner.daemon.port();
    Client client(copt);
    StreamCut cut;
    EXPECT_THROW(client.request_streamed(
                     ServeRequest{"asset", 8, {},
                                  serve::kAcceptAll | serve::kAcceptStreamed},
                     cut_once(client, cut)),
                 NetError);
    EXPECT_TRUE(cut.done);
}

TEST_F(NetFixture, ResumedStreamReassemblesBitExactAfterMidStreamKill) {
    // The connection dies after ~24 KiB of stream frames (once); the client
    // reconnects, re-requests at the received byte offset, and keeps
    // feeding the SAME reassembler — prefix + tail must pass the FIN's
    // whole-wire checksum and match v1 bit-exactly.
    const auto small = server_at(8 * 1024);
    DaemonRunner runner(*small, {});

    auto v1 = in_process(ServeRequest{"asset", 8, {}});
    ASSERT_GT(v1.wire->size(), 48u * 1024);  // the kill lands mid-stream

    ClientOptions copt;
    copt.port = runner.daemon.port();
    copt.stream_resume_attempts = 2;
    Client client(copt);
    StreamCut cut;
    auto v2 = client.request_streamed(
        ServeRequest{"asset", 8, {}, serve::kAcceptAll | serve::kAcceptStreamed},
        cut_once(client, cut));
    ASSERT_TRUE(v2.ok()) << v2.detail;
    EXPECT_EQ(*v2.wire, *v1.wire);
    EXPECT_GT(cut.frames, 0u);
    EXPECT_TRUE(cut.done);
    // The kill really happened: the daemon saw the reconnect.
    EXPECT_GE(runner.daemon.stats().accepted, 2u);
}

// ---- one reply path ----

TEST_F(NetFixture, MaterializedRequestWithTheStreamedBitGetsV1) {
    // request() is the v1 call: a request that carries kAcceptStreamed
    // still gets the v1 response, and the connection stays in step.
    DaemonRunner runner(server, {});
    ClientOptions copt;
    copt.port = runner.daemon.port();
    Client c(copt);
    const auto v1 = in_process(ServeRequest{"asset", 8, {}});
    const auto res = c.request(
        ServeRequest{"asset", 8, {}, serve::kAcceptAll | serve::kAcceptStreamed});
    ASSERT_TRUE(res.ok()) << res.detail;
    EXPECT_EQ(*res.wire, *v1.wire);
    // Same connection, next request.
    const auto next = c.request(ServeRequest{"asset", 2, {}});
    ASSERT_TRUE(next.ok()) << next.detail;
    EXPECT_EQ(*next.wire, *in_process(ServeRequest{"asset", 2, {}}).wire);
}

/// A reply as a client sees it: how it was framed and what it carried.
struct Reply {
    bool streamed = false;  ///< a v2 stream, not one v1 response frame
    ServeResult result;     ///< decoded (v1) or reassembled (v2)
};

/// Read one reply, pulling its frames from `next` until it is complete.
Reply read_reply(const std::function<std::vector<u8>()>& next) {
    Reply r;
    const std::vector<u8> first = next();
    r.streamed = first.size() > 4 && first[4] == serve::kStreamVersion;
    if (!r.streamed) {
        r.result = serve::decode_response(first);
        return r;
    }
    serve::StreamReassembler ra;
    for (bool done = ra.feed(first); !done;) done = ra.feed(next());
    r.result = ra.result();
    return r;
}

/// Send `request` to the daemon on `port` over a new connection and read
/// the reply.
Reply socket_reply(u16 port, std::span<const u8> request) {
    Fd sock = connect_tcp("127.0.0.1", port, Deadline::none());
    std::vector<u8> framed;
    append_net_frame(framed, request);
    send_all(sock.get(), framed, Deadline::none());
    FrameReader reader;
    return read_reply([&] {
        for (;;) {
            if (auto f = reader.next()) return std::move(*f);
            u8 buf[64 * 1024];
            const std::size_t n = recv_some(
                sock.get(), buf, Deadline::after(std::chrono::seconds(30)));
            if (n == 0) net_fail(NetErrorCode::closed, "closed mid-reply");
            reader.feed(std::span<const u8>(buf, n));
        }
    });
}

/// Every kind of request frame gets the same reply from `backend`'s
/// serve_frame() in process and from a daemon fronting it: the same
/// framing, the same code and, for content, the same wire as `ref`.
template <class Backend>
void expect_daemon_replies_match_serve_frame(Backend& backend,
                                             const ServeResult& ref,
                                             const char* backend_name) {
    DaemonRunner runner(backend, {});
    const ServeRequest v1{"asset", 8, {}};
    ServeRequest streamed = v1;
    streamed.accept |= serve::kAcceptStreamed;
    const ServeRequest metrics{
        serve::kMetricsAssetText, 1, {},
        serve::kAcceptAll | serve::kAcceptStreamed | serve::kAcceptMetrics};
    struct Case {
        const char* what;
        std::vector<u8> frame;
        bool streamed;
        serve::ErrorCode code;
    };
    const std::vector<Case> cases = {
        {"v1 request", serve::encode_request(v1), false, serve::ErrorCode::ok},
        {"streamed request", serve::encode_request(streamed), true,
         serve::ErrorCode::ok},
        {"streamed !metrics request", serve::encode_request(metrics), false,
         serve::ErrorCode::ok},
        {"malformed frame", {'n', 'o', 'p', 'e'}, false,
         serve::ErrorCode::malformed_frame},
    };
    for (const Case& c : cases) {
        const std::string what = std::string(backend_name) + ", " + c.what;
        serve::ServeStream st = backend.serve_frame(c.frame);
        const Reply local = read_reply([&] {
            auto f = st.next_frame();
            if (!f) throw std::runtime_error("reply ended early");
            return std::move(*f);
        });
        EXPECT_FALSE(st.next_frame()) << what << ": frames after the reply";
        const Reply remote = socket_reply(runner.daemon.port(), c.frame);
        EXPECT_EQ(local.streamed, c.streamed) << what;
        EXPECT_EQ(remote.streamed, c.streamed) << what;
        EXPECT_EQ(local.result.code, c.code) << what << ": "
                                             << local.result.detail;
        EXPECT_EQ(remote.result.code, c.code) << what << ": "
                                              << remote.result.detail;
        EXPECT_EQ(local.result.payload, remote.result.payload) << what;
        if (c.code != serve::ErrorCode::ok ||
            local.result.payload == serve::PayloadKind::metrics)
            continue;
        ASSERT_NE(local.result.wire, nullptr) << what;
        ASSERT_NE(remote.result.wire, nullptr) << what;
        EXPECT_EQ(*local.result.wire, *ref.wire) << what;
        EXPECT_EQ(*remote.result.wire, *ref.wire) << what;
    }
    runner.drain_and_join();
    EXPECT_EQ(runner.daemon.stats().streamed, 1u) << backend_name;
}

TEST_F(NetFixture, DaemonRepliesMatchServeFrameForEveryRequestKind) {
    const auto ref = in_process(ServeRequest{"asset", 8, {}});
    expect_daemon_replies_match_serve_frame(server, ref, "ContentServer");
    serve::ShardedOptions opt;
    opt.shards = 2;
    serve::ShardedServer router(opt);
    router.encode_bytes("asset", data, 64);
    expect_daemon_replies_match_serve_frame(router, ref, "2-shard router");
}

// ---- multi-loop daemon ----

#ifdef RECOIL_TSAN
constexpr u32 kLoopTestThreads = 8;
constexpr u32 kLoopTestConnsPerThread = 10;
#else
constexpr u32 kLoopTestThreads = 16;
constexpr u32 kLoopTestConnsPerThread = 8;
#endif

TEST_F(NetFixture, MultiLoopDaemonServesBitExactAndDrains) {
    DaemonOptions dopt;
    dopt.loops = 4;
    DaemonRunner runner(server, dopt);
    const u16 port = runner.daemon.port();

    auto full_ref = in_process(ServeRequest{"asset", 8, {}});
    auto range_ref =
        in_process(ServeRequest{"asset", 8, {{1000, 60'000}}});

    std::atomic<u32> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kLoopTestThreads);
    for (u32 t = 0; t < kLoopTestThreads; ++t) {
        threads.emplace_back([&, t] {
            for (u32 i = 0; i < kLoopTestConnsPerThread; ++i) {
                try {
                    ClientOptions copt;
                    copt.port = port;
                    Client c(copt);
                    auto v1 = c.request(ServeRequest{"asset", 8, {}});
                    if (!v1.ok() || *v1.wire != *full_ref.wire) ++failures;
                    auto rr = c.request(
                        ServeRequest{"asset", 8, {{1000, 60'000}}});
                    if (!rr.ok() || *rr.wire != *range_ref.wire) ++failures;
                    if ((t + i) % 3 == 0) {
                        auto v2 = c.request_streamed(ServeRequest{
                            "asset", 8, {},
                            serve::kAcceptAll | serve::kAcceptStreamed});
                        if (!v2.ok() || *v2.wire != *full_ref.wire)
                            ++failures;
                    }
                } catch (const Error&) {
                    ++failures;
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u);

    constexpr u32 kConns = kLoopTestThreads * kLoopTestConnsPerThread;
    auto s = runner.daemon.stats();
    EXPECT_EQ(s.loops, 4u);
    EXPECT_GE(s.accepted, kConns);
    EXPECT_GE(s.requests, 2u * kConns);
    // The kernel's SO_REUSEPORT hash is the only accept spread. At >= 80
    // connections over 4 loops, a loop that accepts nothing has probability
    // at most 4 * (3/4)^80 < 1e-9.
    static_assert(kConns >= 80);
    const auto snap = server.metrics().snapshot();
    for (u32 i = 0; i < 4; ++i) {
        const u64* accepted = snap.find("daemon_accepted_total{loop=\"" +
                                        std::to_string(i) + "\"}");
        ASSERT_NE(accepted, nullptr);
        EXPECT_GT(*accepted, 0u) << "loop " << i << " accepted nothing";
    }
    runner.drain_and_join();
    auto after = runner.daemon.stats();
    EXPECT_EQ(after.drains, 1u);
    EXPECT_EQ(after.connections, 0u);
}

TEST_F(NetFixture, MultiLoopConnectionLimitHoldsAcrossLoops) {
    // Four loops admit at once against one global limit: each reserves its
    // slot before admitting, so no interleaving overshoots it.
    constexpr u32 kLimit = 8;
    constexpr u32 kConnects = 64;
    DaemonOptions dopt;
    dopt.loops = 4;
    dopt.max_connections = kLimit;
    DaemonRunner runner(server, dopt);

    std::vector<Fd> held;  // every connection stays open to the end
    for (u32 i = 0; i < kConnects; ++i)
        held.push_back(connect_tcp("127.0.0.1", runner.daemon.port(),
                                   Deadline::none()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    auto s = runner.daemon.stats();
    while (s.accepted + s.refused < kConnects &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        s = runner.daemon.stats();
    }
    EXPECT_EQ(s.accepted, kLimit);
    EXPECT_EQ(s.refused, kConnects - kLimit);
    EXPECT_LE(s.peak_connections, kLimit);
    EXPECT_EQ(s.connections, kLimit);
}

TEST_F(NetFixture, MultiLoopDrainMidStreamCompletesBitExact) {
    // The single-loop drain guarantee must hold per loop: start a stream,
    // signal drain mid-stream from another thread, and require the
    // remaining frames to arrive and reassemble bit-exactly.
    DaemonOptions dopt;
    dopt.loops = 2;
    const auto small = server_at(4 * 1024);
    DaemonRunner runner(*small, dopt);

    auto v1 = in_process(ServeRequest{"asset", 8, {}});
    ClientOptions copt;
    copt.port = runner.daemon.port();
    Client client(copt);
    bool drained = false;
    auto v2 = client.request_streamed(
        ServeRequest{"asset", 8, {}, serve::kAcceptAll | serve::kAcceptStreamed},
        [&](std::span<const u8>) {
            if (!drained) {
                drained = true;
                runner.daemon.begin_drain();
            }
        });
    ASSERT_TRUE(v2.ok()) << v2.detail;
    EXPECT_EQ(*v2.wire, *v1.wire);
    runner.drain_and_join();
    EXPECT_EQ(runner.daemon.stats().connections, 0u);
}

}  // namespace
}  // namespace recoil::net
