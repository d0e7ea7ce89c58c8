#pragma once
// Blocking client for the recoil_served wire: one TCP connection speaking
// length-prefixed protocol frames (net/framing.hpp). request() is the v1
// round-trip (frame out, frame back, decode_response). request_streamed()
// negotiates the v2 streamed framing and feeds every arriving stream frame
// through a StreamReassembler — the result is test-enforced bit-exact with
// v1 — while an optional callback sees each raw frame as it lands
// (progress bars, incremental decoders). Transport failures throw typed
// NetError; protocol defects throw the serve layer's ProtocolError —
// same taxonomy in-process and over the wire.

#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/error.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace recoil::net {

struct ClientOptions {
    std::string host = "127.0.0.1";
    u16 port = 0;
    std::chrono::milliseconds connect_timeout{5000};
    /// Per-request deadline covering the whole exchange (send + all
    /// response frames). 0 = no deadline.
    std::chrono::milliseconds io_timeout{30000};
    /// Inbound transport-frame cap (v1 responses carry whole wires, so
    /// this must cover the largest asset you expect to materialize).
    u32 max_response_frame = kMaxTransportFrame;
    /// request_streamed() reconnect budget (0 = off): when the transport
    /// fails mid-stream after an ok header, reconnect up to this many
    /// times and resume at the received byte offset
    /// (ServeRequest::resume_offset) — reassembly stays bit-exact because
    /// the FIN's checksum still covers the whole wire, skipped prefix
    /// included. Failures before resumable progress still throw.
    u32 stream_resume_attempts = 0;
};

class Client {
public:
    /// Connects eagerly; throws NetError{connect_failed | timeout}.
    explicit Client(ClientOptions opt);

    /// v1 round-trip: one request frame out, one response frame back. The
    /// request goes without kAcceptStreamed, so the answer is always v1.
    serve::ServeResult request(const serve::ServeRequest& req);

    /// v2 round-trip: forces kAcceptStreamed onto the request, reassembles
    /// the header/body/FIN sequence into the same ServeResult a v1
    /// exchange would produce. `on_frame` (optional) observes each raw
    /// protocol frame in arrival order, before it is fed to the
    /// reassembler. A server that answers with a single v1 frame instead
    /// (e.g. a typed error for a malformed request) is handled
    /// transparently. With ClientOptions::stream_resume_attempts > 0, a
    /// mid-stream transport failure reconnects and resumes at the received
    /// byte offset instead of throwing.
    using FrameCallback = std::function<void(std::span<const u8>)>;
    serve::ServeResult request_streamed(const serve::ServeRequest& req,
                                        FrameCallback on_frame = {});

    /// Raw exchange: send one protocol frame, read one back. The building
    /// block of request(); exposed for tests that craft hostile frames.
    std::vector<u8> roundtrip_frame(std::span<const u8> frame);

    /// Scrape the server's metrics over this connection ("!metrics" /
    /// "!metrics.json"); returns the exposition text. Throws
    /// ProtocolError if the server rejects introspection.
    std::string fetch_metrics(bool json = false);

    /// The underlying socket, for tests that need to misbehave.
    int fd() const noexcept { return fd_.get(); }

private:
    std::vector<u8> read_frame(Deadline deadline);

    ClientOptions opt_;
    Fd fd_;
    FrameReader reader_;
};

}  // namespace recoil::net
