#include "net/client.hpp"

namespace recoil::net {

namespace {

/// A v1 "RCRS" response frame, as opposed to a v2 stream frame — the
/// negotiation signal request_streamed() must handle (typed errors for
/// undecodable requests come back materialized).
bool is_v1_response(std::span<const u8> frame) {
    return frame.size() >= 5 && frame[0] == 'R' && frame[1] == 'C' &&
           frame[2] == 'R' && frame[3] == 'S' &&
           frame[4] == serve::kProtocolVersion;
}

}  // namespace

Client::Client(ClientOptions opt)
    : opt_(std::move(opt)),
      fd_(connect_tcp(opt_.host, opt_.port,
                      Deadline::after(opt_.connect_timeout))),
      reader_(opt_.max_response_frame) {}

std::vector<u8> Client::read_frame(Deadline deadline) {
    for (;;) {
        if (auto frame = reader_.next()) return std::move(*frame);
        u8 buf[64 * 1024];
        std::size_t n = recv_some(fd_.get(), buf, deadline);
        if (n == 0) {
            net_fail(NetErrorCode::closed,
                     reader_.empty()
                         ? "server closed the connection"
                         : "server closed the connection mid-frame");
        }
        reader_.feed(std::span<const u8>(buf, n));
    }
}

std::vector<u8> Client::roundtrip_frame(std::span<const u8> frame) {
    Deadline deadline = Deadline::after(opt_.io_timeout);
    std::vector<u8> framed;
    framed.reserve(frame.size() + 4);
    append_net_frame(framed, frame);
    send_all(fd_.get(), framed, deadline);
    return read_frame(deadline);
}

serve::ServeResult Client::request(const serve::ServeRequest& req) {
    serve::ServeRequest v1 = req;
    v1.accept &= static_cast<u8>(~serve::kAcceptStreamed);
    std::vector<u8> resp = roundtrip_frame(serve::encode_request(v1));
    return serve::decode_response(resp);
}

serve::ServeResult Client::request_streamed(const serve::ServeRequest& req,
                                            FrameCallback on_frame) {
    serve::ServeRequest streamed = req;
    streamed.accept |= serve::kAcceptStreamed;
    serve::StreamReassembler reasm;
    u32 resumes_left = opt_.stream_resume_attempts;
    for (;;) {
        try {
            Deadline deadline = Deadline::after(opt_.io_timeout);
            std::vector<u8> framed;
            append_net_frame(framed, serve::encode_request(streamed));
            send_all(fd_.get(), framed, deadline);
            for (;;) {
                std::vector<u8> frame = read_frame(deadline);
                if (is_v1_response(frame))
                    return serve::decode_response(frame);
                if (on_frame) on_frame(frame);
                if (reasm.feed(frame)) return reasm.result();
            }
        } catch (const NetError&) {
            // Resumable only after an ok header: re-dial, re-request at
            // the received byte offset, and keep the SAME reassembler —
            // its accumulated wire and digest validate prefix + tail
            // against the resumed FIN, bit-exact with an uninterrupted
            // stream. A dead partial transport frame dies with reader_.
            if (resumes_left == 0 || !reasm.resumable()) throw;
            --resumes_left;
            fd_ = connect_tcp(opt_.host, opt_.port,
                              Deadline::after(opt_.connect_timeout));
            reader_ = FrameReader(opt_.max_response_frame);
            streamed.resume_offset = reasm.bytes_received();
            reasm.begin_resume();
        }
    }
}

std::string Client::fetch_metrics(bool json) {
    serve::ServeRequest req;
    req.asset = json ? serve::kMetricsAssetJson : serve::kMetricsAssetText;
    req.accept = serve::kAcceptAll | serve::kAcceptMetrics;
    serve::ServeResult res = request(req);
    if (!res.ok())
        throw serve::ProtocolError(res.code, "metrics scrape failed: " +
                                                 res.detail);
    return res.wire ? std::string(res.wire->begin(), res.wire->end())
                    : std::string();
}

}  // namespace recoil::net
