#pragma once
// Versioned wire protocol of the serve subsystem. ServeRequest/ServeResult
// are the in-process API *and* have a framed, checksummed wire form
// (encode_request/decode_request, encode_response/decode_response), so an
// HTTP/gRPC frontend can cross a process boundary without touching core:
// it forwards opaque request frames to ContentServer::serve_frame and ships
// the response frame back. Failures are typed ErrorCode values — the string
// detail is for humans and logs, never for dispatch. Parsers consume
// untrusted bytes and throw ProtocolError (a typed recoil::Error), never
// crash: frames are FNV-checksummed and every length field is bounds-checked
// through the shared wire_io cursor.
//
// Frames are NOT self-delimiting: decode_request/decode_response and the
// StreamReassembler expect a span holding exactly one complete frame. A
// byte-stream transport must delimit frames itself — the TCP layer in
// src/net/ prepends a u32 LE length to every frame (net/framing.hpp) and
// reassembles complete frames from partial reads before handing them here.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "format/wire_io.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::serve {

/// A served response's payload bytes, shared between the LRU cache, in-flight
/// coalesced requests and callers, so nothing ever copies a wire to hand it
/// out and cache eviction never invalidates a response being written.
using WireBytes = std::shared_ptr<const std::vector<u8>>;

/// A finished full-asset or range response, as a single flight publishes
/// it and the LRU cache holds it: the wire, the split count it carries, and
/// the checksum of each body frame it streams in at kDefaultMaxFrameBytes
/// (body_frame_sums), computed in the pass that sealed the wire. A miss, a
/// warm hit and a coalesced follower therefore all frame it without
/// hashing.
struct FinishedResponse {
    std::vector<u8> wire;
    u32 splits = 0;
    std::vector<u64> frame_sums;
};
using SharedResponse = std::shared_ptr<const FinishedResponse>;

/// Typed failure taxonomy of the serve protocol. Stable wire values: new
/// codes may be appended, existing values never change meaning.
enum class ErrorCode : u16 {
    ok = 0,
    unknown_asset = 1,        ///< no asset under the requested name
    invalid_range = 2,        ///< lo >= hi or hi past the asset's symbols
    not_acceptable = 3,       ///< asset's wire form excluded by accept flags
    bad_request = 4,          ///< structurally valid frame, nonsense values
    malformed_frame = 5,      ///< frame structure does not parse
    checksum_mismatch = 6,    ///< frame integrity check failed
    unsupported_version = 7,  ///< peer speaks a protocol version we do not
    internal = 8,             ///< server-side failure while building the wire
    frame_too_large = 9,      ///< frame exceeds the negotiated max-frame size
};
const char* error_name(ErrorCode code) noexcept;

/// Typed parse/serve failure. `code` is authoritative; what() elaborates.
class ProtocolError : public Error {
public:
    ProtocolError(ErrorCode code, const std::string& what)
        : Error(what), code_(code) {}
    ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// Client capability bits (ServeRequest::accept): which wire forms the
/// client can decode. A server never responds with a form the client did not
/// accept — it returns not_acceptable instead. kAcceptAll covers the payload
/// forms; kAcceptStreamed is a framing capability layered on top (the client
/// can reassemble v2 streamed response frames), required by serve_stream and
/// deliberately NOT part of kAcceptAll so default requests stay wire-
/// compatible with v1 servers, which reject unknown accept bits.
inline constexpr u8 kAcceptFile = 1;     ///< RecoilFile containers (RCF1)
inline constexpr u8 kAcceptChunked = 2;  ///< ChunkedStream containers (RCS1)
inline constexpr u8 kAcceptRange = 4;    ///< multi-segment range wires (RCR2)
inline constexpr u8 kAcceptStreamed = 8; ///< v2 streamed response framing
/// Introspection capability: the client understands metrics payloads served
/// under the reserved "!metrics"/"!metrics.json" asset names. Like
/// kAcceptStreamed, deliberately not part of kAcceptAll: a default request
/// stays wire-compatible with servers that predate introspection.
inline constexpr u8 kAcceptMetrics = 16;
inline constexpr u8 kAcceptAll = kAcceptFile | kAcceptChunked | kAcceptRange;

/// Which container format ServeResult::wire holds. `metrics` is a telemetry
/// snapshot (Prometheus text or JSON, by requested name), not a RECOIL
/// container.
enum class PayloadKind : u8 {
    none = 0,
    file = 1,
    chunked = 2,
    range = 3,
    metrics = 4,
};
const char* payload_name(PayloadKind kind) noexcept;

/// Reserved asset names for the introspection request: a ServeRequest naming
/// one of these (with kAcceptMetrics set) is answered with a PayloadKind::
/// metrics snapshot of the server's registry instead of store content. A
/// leading '!' is not a legal store name, so no real asset can collide.
inline constexpr const char* kMetricsAssetText = "!metrics";
inline constexpr const char* kMetricsAssetJson = "!metrics.json";

struct ServeRequest {
    std::string asset;
    /// Client's parallel decode capacity (warps/threads); clamped to the
    /// asset's encoded split budget. Ignored for range requests, which ship
    /// the master's fine-grained covering splits.
    u32 parallelism = 1;
    /// Symbol range [lo, hi) to serve instead of the whole asset.
    std::optional<std::pair<u64, u64>> range;
    /// Wire forms the client can decode (kAccept* bits).
    u8 accept = kAcceptAll;
    /// Resume a previously interrupted STREAMED response at this wire-byte
    /// offset: the server re-serves the same deterministic wire from here
    /// (the FIN's whole-wire checksum still covers prefix + tail, so
    /// reassembly stays bit-exact end to end); an offset past the wire is
    /// rejected as bad_request. Only valid with kAcceptStreamed; nonzero
    /// without it is rejected as bad_request. Wire-compatible: 0 encodes
    /// exactly the pre-resume frame layout.
    u64 resume_offset = 0;
};

struct ServeStats {
    u64 wire_bytes = 0;
    /// Parallel work items the response actually carries (splits in the
    /// served metadata, or covering splits for a range).
    u32 splits_served = 0;
    bool cache_hit = false;
    /// Served by waiting on another request's in-flight combine instead of
    /// recomputing (single-flight coalescing).
    bool coalesced = false;
    double combine_seconds = 0;  ///< server-local: adaptation + serialization
    double total_seconds = 0;    ///< server-local: not carried on the wire
};

struct ServeResult {
    ErrorCode code = ErrorCode::internal;
    std::string detail;  ///< human-readable elaboration of `code`
    PayloadKind payload = PayloadKind::none;
    WireBytes wire;      ///< shared payload bytes; null on failure
    ServeStats stats;

    bool ok() const noexcept { return code == ErrorCode::ok; }
};

inline constexpr u8 kProtocolVersion = 1;
/// Version byte of the streamed response framing (same "RCRS" magic; a v1
/// peer rejects it as unsupported_version, which is the negotiation signal).
inline constexpr u8 kStreamVersion = 2;
inline constexpr u32 kMaxAssetNameLen = 4096;
inline constexpr u32 kMaxDetailLen = u32{1} << 16;
/// Default negotiated ceiling on a single streamed body frame's payload.
inline constexpr u64 kDefaultMaxFrameBytes = u64{1} << 20;
/// Sentinel: no frame-size ceiling negotiated (v1 compatibility default).
inline constexpr u64 kNoFrameLimit = 0;

/// Serialize a request into a framed, checksummed message ("RCRQ" v1).
std::vector<u8> encode_request(const ServeRequest& req);
/// Parse a request frame. Throws ProtocolError on any defect; never crashes.
ServeRequest decode_request(std::span<const u8> frame);

/// Serialize a result into a framed, checksummed message ("RCRS" v1). The
/// payload bytes ride inside the frame; server-local timing stats do not.
/// With a negotiated `max_frame_bytes`, a frame that would exceed it throws
/// typed frame_too_large instead of being emitted (encode-side enforcement).
std::vector<u8> encode_response(const ServeResult& res,
                                u64 max_frame_bytes = kNoFrameLimit);
/// Parse a response frame. Throws ProtocolError on any defect. With a
/// negotiated `max_frame_bytes`, an oversized frame is rejected as typed
/// frame_too_large before any of it is parsed (decode-side enforcement).
ServeResult decode_response(std::span<const u8> frame,
                            u64 max_frame_bytes = kNoFrameLimit);

// ---- v2 streamed response framing ----
//
// A streamed response is a SEQUENCE of small, individually FNV-checksummed
// frames instead of one frame holding the whole wire: a header frame
// (status + stats), N body frames (consecutive slices of exactly the bytes
// the v1 response's payload would hold), and a FIN frame carrying the body
// frame count and a whole-wire FNV over the concatenated body payloads —
// so a receiver that never materializes the wire still gets end-to-end
// integrity, and one that does reassemble gets bit-exactness with v1.

struct StreamHeader {
    ErrorCode code = ErrorCode::internal;
    std::string detail;
    PayloadKind payload = PayloadKind::none;
    bool cache_hit = false;
    bool coalesced = false;
    /// Splits carried (the FIN repeats the count).
    u32 splits = 0;
    /// Total wire bytes of the response — the whole wire, also when the
    /// stream resumes mid-way. Servers always send it; a receiver treats 0
    /// as "not announced".
    u64 wire_bytes = 0;
    /// The producer's body-frame payload ceiling (0 = none), echoed so the
    /// consumer can size its read buffer before the first body frame.
    u64 max_frame_bytes = kNoFrameLimit;
};

struct StreamFin {
    ErrorCode code = ErrorCode::ok;  ///< non-ok: the stream aborted mid-way
    std::string detail;
    u32 body_frames = 0;
    u32 splits = 0;  ///< authoritative split count for the streamed wire
    u64 wire_checksum = 0;  ///< FNV-1a over all body payload bytes, in order
};

enum class StreamFrameType : u8 { header = 0, body = 1, fin = 2 };

/// One parsed streamed-response frame. `payload` is a view into the input
/// frame (valid only while those bytes live); everything else is owned.
struct StreamFrame {
    StreamFrameType type = StreamFrameType::header;
    StreamHeader header;          ///< type == header
    u32 seq = 0;                  ///< type == body: 0-based body frame index
    std::span<const u8> payload;  ///< type == body
    StreamFin fin;                ///< type == fin
};

std::vector<u8> encode_stream_header(const StreamHeader& h);
/// Throws typed frame_too_large when payload exceeds `max_frame_bytes`.
/// `checksum`, when given, is the frame's checksum computed ahead of time
/// (a held FinishedResponse::frame_sums entry) and is written as is, so the
/// frame costs no hash pass.
std::vector<u8> encode_stream_body(u32 seq, std::span<const u8> payload,
                                   u64 max_frame_bytes = kNoFrameLimit,
                                   std::optional<u64> checksum = std::nullopt);
std::vector<u8> encode_stream_fin(const StreamFin& fin);
/// Request for a WireSink to compute the checksum encode_stream_body gives
/// each body frame of its wire, streamed at `max_frame_bytes` per frame.
format::FrameSums body_frame_sums(u64 max_frame_bytes);
/// Parse any v2 stream frame. Throws ProtocolError on any defect; an
/// oversized body (or whole frame) against the negotiated ceiling is typed
/// frame_too_large.
StreamFrame decode_stream_frame(std::span<const u8> frame,
                                u64 max_frame_bytes = kNoFrameLimit);

/// Client-side reassembler: feed frames in arrival order; validates the
/// header/body/FIN state machine, body-frame contiguity, the announced
/// totals and the whole-wire checksum, then exposes the materialized
/// ServeResult — test-enforced to be bit-exact with the v1 response.
///
/// A body frame whose header parses as a body frame of its own length is
/// checked in one pass that folds its frame checksum and the whole-wire
/// digest together; its payload enters the wire only after the checksum
/// and sequencing checks pass, so a rejected frame leaves the reassembler
/// unchanged. Any other frame is verified first (decode_stream_frame), so
/// a damaged frame ends in the same typed error on either path.
class StreamReassembler {
public:
    explicit StreamReassembler(u64 max_frame_bytes = kNoFrameLimit)
        : max_frame_(max_frame_bytes) {}

    /// Feed the next frame; true once the stream is complete (after the FIN,
    /// or immediately after an error header). Throws ProtocolError on any
    /// defect, including a FIN that reports a mid-stream abort.
    bool feed(std::span<const u8> frame);
    bool done() const noexcept { return done_; }
    const StreamHeader& header() const;
    /// Body-payload bytes accumulated so far — the `resume_offset` a
    /// reconnecting client sends after a mid-stream transport failure.
    u64 bytes_received() const noexcept { return wire_->size(); }
    /// True when an interrupted stream can continue through begin_resume():
    /// an ok header arrived and the stream has not completed.
    bool resumable() const noexcept {
        return have_header_ && !done_ && head_.code == ErrorCode::ok;
    }
    /// Re-arm for the tail of a resumed stream: the next frame must be a
    /// fresh header and body sequencing restarts at 0, while the
    /// accumulated wire bytes and the incremental whole-wire digest carry
    /// over — so the FIN of the resumed tail validates prefix + tail
    /// together, bit-exact with an uninterrupted stream.
    void begin_resume() noexcept {
        have_header_ = false;
        next_seq_ = 0;
    }
    /// The reassembled response; requires done(). `wire` shares the
    /// accumulation buffer (immutable once done) — no copy is made, so the
    /// client's peak memory stays one wire, not two.
    ServeResult result() const;

private:
    /// Sequencing checks for body frame `seq`, then append its payload and
    /// take `digest` (the whole-wire digest with the payload folded in).
    void accept_body(u32 seq, std::span<const u8> payload, u64 digest);

    u64 max_frame_;
    bool have_header_ = false;
    bool done_ = false;
    StreamHeader head_;
    u32 splits_ = 0;
    std::shared_ptr<std::vector<u8>> wire_ =
        std::make_shared<std::vector<u8>>();
    u64 digest_ = format::kFnvInit;  ///< incremental FNV over *wire_
    u32 next_seq_ = 0;
};

}  // namespace recoil::serve
