#include "serve/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "format/wire_io.hpp"

namespace recoil::serve {

using namespace format::wire;

namespace {

constexpr char kRequestMagic[4] = {'R', 'C', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'R', 'C', 'R', 'S'};

constexpr u8 kRequestFlagHasRange = 1;
constexpr u8 kRequestFlagHasResume = 2;
constexpr u8 kResponseFlagCacheHit = 1;
constexpr u8 kResponseFlagCoalesced = 2;

/// Structural bytes of a v2 body frame besides its payload (magic, version,
/// type, reserved, seq, length, checksum) — the slack allowed on top of the
/// negotiated payload ceiling when judging a whole frame's size.
constexpr u64 kStreamBodyOverhead = 4 + 1 + 1 + 1 + 4 + 8 + 8;

[[noreturn]] void fail(ErrorCode code, const std::string& what) {
    throw ProtocolError(code, what);
}

/// Frame-level integrity: length floor + trailing FNV checksum, classified
/// into typed codes (unlike wire_io's checked_payload, which reports strings
/// only). Returns the payload the checksum covers.
std::span<const u8> verify_frame(std::span<const u8> frame, const char* ctx) {
    if (frame.size() < 16)
        fail(ErrorCode::malformed_frame, std::string(ctx) + ": frame too short");
    auto payload = frame.first(frame.size() - 8);
    if (format::fnv1a(payload) != format::stored_checksum(frame))
        fail(ErrorCode::checksum_mismatch, std::string(ctx) + ": checksum mismatch");
    return payload;
}

/// Wrap the structural parse so cursor bounds violations (plain recoil::Error
/// from wire_io) surface as typed malformed_frame errors.
template <typename Fn>
auto parse_frame(std::span<const u8> payload, const char* ctx, Fn&& fn) {
    Cursor c{payload, ctx};
    try {
        auto out = fn(c);
        if (c.pos != payload.size())
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": trailing bytes");
        return out;
    } catch (const ProtocolError&) {
        throw;
    } catch (const Error& e) {
        fail(ErrorCode::malformed_frame, e.what());
    }
}

void check_magic(Cursor& c, const char (&magic)[4], const char* ctx) {
    if (std::memcmp(c.get_bytes(4).data(), magic, 4) != 0)
        fail(ErrorCode::malformed_frame, std::string(ctx) + ": bad magic");
}

void check_version(Cursor& c, const char* ctx) {
    const u8 v = c.get_u8();
    if (v != kProtocolVersion)
        fail(ErrorCode::unsupported_version,
             std::string(ctx) + ": unsupported version " + std::to_string(v));
}

/// The `detail` field of a v1 response, a v2 header and a FIN: a u32
/// length, then the text, cut to kMaxDetailLen bytes.
void put_detail(std::vector<u8>& out, std::string_view detail) {
    detail = detail.substr(0, kMaxDetailLen);
    put_u32(out, static_cast<u32>(detail.size()));
    out.insert(out.end(), detail.begin(), detail.end());
}

std::string get_detail(Cursor& c) {
    const u32 len = c.get_u32();
    if (len > kMaxDetailLen)
        fail(ErrorCode::malformed_frame, std::string(c.ctx) + ": detail too long");
    const auto bytes = c.get_bytes(len);
    return std::string(bytes.begin(), bytes.end());
}

}  // namespace

const char* error_name(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::ok: return "ok";
        case ErrorCode::unknown_asset: return "unknown_asset";
        case ErrorCode::invalid_range: return "invalid_range";
        case ErrorCode::not_acceptable: return "not_acceptable";
        case ErrorCode::bad_request: return "bad_request";
        case ErrorCode::malformed_frame: return "malformed_frame";
        case ErrorCode::checksum_mismatch: return "checksum_mismatch";
        case ErrorCode::unsupported_version: return "unsupported_version";
        case ErrorCode::internal: return "internal";
        case ErrorCode::frame_too_large: return "frame_too_large";
    }
    return "unknown";
}

const char* payload_name(PayloadKind kind) noexcept {
    switch (kind) {
        case PayloadKind::none: return "none";
        case PayloadKind::file: return "file";
        case PayloadKind::chunked: return "chunked";
        case PayloadKind::range: return "range";
        case PayloadKind::metrics: return "metrics";
    }
    return "unknown";
}

FinishedResponse::FinishedResponse(format::WireSink& sink, u32 splits)
    : pieces_(sink.take_pieces()),
      size_(sink.bytes()),
      digest_(sink.digest()),
      splits_(splits),
      sums_(sink.frame_sums()) {
    for (const format::ByteBuffer& p : pieces_)
        if (!p.borrowed()) owned_ += p.size();
}

FinishedResponse::FinishedResponse(format::ByteBuffer wire, u32 splits)
    : size_(wire.size()),
      owned_(wire.borrowed() ? 0 : wire.size()),
      digest_(wire.size() >= 8 ? format::sealed_fnv1a(wire) : 0),
      splits_(splits) {
    if (!wire.empty()) pieces_.push_back(std::move(wire));
}

std::span<const u8> FinishedResponse::bytes() const {
    if (pieces_.size() <= 1)
        return pieces_.empty() ? std::span<const u8>() : pieces_.front();
    util::MutexLock lk(gather_mu_);
    if (gathered_.empty()) {
        gathered_.reserve(size_);
        for (const format::ByteBuffer& p : pieces_)
            gathered_.insert(gathered_.end(), p.begin(), p.end());
    }
    return gathered_;
}

bool operator==(const FinishedResponse& a, std::span<const u8> b) {
    if (a.size_ != b.size()) return false;
    for (const format::ByteBuffer& p : a.pieces_) {
        if (!std::equal(p.begin(), p.end(), b.begin())) return false;
        b = b.subspan(p.size());
    }
    return true;
}

std::vector<u8> encode_request(const ServeRequest& req) {
    // Fail fast on anything decode_request would reject: an unparseable
    // frame wastes a round trip and comes back as a server-side bad_request.
    RECOIL_CHECK(!req.asset.empty() && req.asset.size() <= kMaxAssetNameLen,
                 "encode_request: bad asset name length");
    RECOIL_CHECK(req.parallelism != 0, "encode_request: zero parallelism");
    RECOIL_CHECK(
        req.accept != 0 &&
            (req.accept & ~(kAcceptAll | kAcceptStreamed | kAcceptMetrics)) ==
                0,
        "encode_request: bad accept mask");
    RECOIL_CHECK(req.resume_offset == 0 ||
                     (req.accept & kAcceptStreamed) != 0,
                 "encode_request: resume_offset requires kAcceptStreamed");
    std::vector<u8> out;
    put_magic(out, kRequestMagic);
    out.push_back(kProtocolVersion);
    out.push_back(static_cast<u8>(
        (req.range ? kRequestFlagHasRange : 0) |
        (req.resume_offset != 0 ? kRequestFlagHasResume : 0)));
    out.push_back(req.accept);
    out.push_back(0);  // reserved
    put_u32(out, req.parallelism);
    put_u32(out, static_cast<u32>(req.asset.size()));
    out.insert(out.end(), req.asset.begin(), req.asset.end());
    if (req.range) {
        put_u64(out, req.range->first);
        put_u64(out, req.range->second);
    }
    if (req.resume_offset != 0) put_u64(out, req.resume_offset);
    append_checksum(out);
    return out;
}

ServeRequest decode_request(std::span<const u8> frame) {
    const char* ctx = "serve request";
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        check_magic(c, kRequestMagic, ctx);
        check_version(c, ctx);
        const u8 flags = c.get_u8();
        if ((flags & ~(kRequestFlagHasRange | kRequestFlagHasResume)) != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown flags");
        ServeRequest req;
        req.accept = c.get_u8();
        if (req.accept == 0 ||
            (req.accept & ~(kAcceptAll | kAcceptStreamed | kAcceptMetrics)) !=
                0)
            fail(ErrorCode::bad_request, std::string(ctx) + ": bad accept mask");
        if (c.get_u8() != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": reserved byte set");
        req.parallelism = c.get_u32();
        if (req.parallelism == 0)
            fail(ErrorCode::bad_request, std::string(ctx) + ": zero parallelism");
        const u32 name_len = c.get_u32();
        if (name_len == 0 || name_len > kMaxAssetNameLen)
            fail(ErrorCode::bad_request, std::string(ctx) + ": bad asset name length");
        auto name = c.get_bytes(name_len);
        req.asset.assign(name.begin(), name.end());
        if ((flags & kRequestFlagHasRange) != 0) {
            const u64 lo = c.get_u64();
            const u64 hi = c.get_u64();
            req.range = {lo, hi};
        }
        if ((flags & kRequestFlagHasResume) != 0) {
            req.resume_offset = c.get_u64();
            if (req.resume_offset == 0)
                fail(ErrorCode::bad_request,
                     std::string(ctx) + ": zero resume offset flagged");
            if ((req.accept & kAcceptStreamed) == 0)
                fail(ErrorCode::bad_request,
                     std::string(ctx) +
                         ": resume offset without streamed accept");
        }
        return req;
    });
}

std::vector<u8> encode_response(const ServeResult& res, u64 max_frame_bytes) {
    const bool carries = res.ok() && res.wire != nullptr;
    // One allocation for the frame, though the wire arrives piece by piece.
    std::vector<u8> out;
    out.reserve(64 + std::min<std::size_t>(res.detail.size(), kMaxDetailLen) +
                (carries ? res.wire->size() : 0));
    put_magic(out, kResponseMagic);
    out.push_back(kProtocolVersion);
    put_u16(out, static_cast<u16>(res.code));
    out.push_back(static_cast<u8>(res.payload));
    out.push_back(static_cast<u8>((res.stats.cache_hit ? kResponseFlagCacheHit : 0) |
                                  (res.stats.coalesced ? kResponseFlagCoalesced : 0)));
    put_u32(out, res.stats.splits_served);
    put_detail(out, res.detail);
    if (carries) {
        put_u64(out, res.wire->size());
        for (const format::ByteBuffer& p : res.wire->pieces())
            out.insert(out.end(), p.begin(), p.end());
    } else {
        put_u64(out, 0);
    }
    append_checksum(out);
    if (max_frame_bytes != kNoFrameLimit && out.size() > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "serve response: " + std::to_string(out.size()) +
                 " B frame exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    return out;
}

ServeResult decode_response(std::span<const u8> frame, u64 max_frame_bytes) {
    const char* ctx = "serve response";
    if (max_frame_bytes != kNoFrameLimit && frame.size() > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "serve response: " + std::to_string(frame.size()) +
                 " B frame exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        check_magic(c, kResponseMagic, ctx);
        check_version(c, ctx);
        ServeResult res;
        // Codes beyond the ones this build knows are preserved, not
        // rejected: the protocol contract lets servers append codes without
        // a version bump, and error_name() reports them as "unknown".
        // Payload kinds stay strict — a payload form the client never
        // accepted (negotiation) could not be decoded anyway.
        res.code = static_cast<ErrorCode>(c.get_u16());
        const u8 kind = c.get_u8();
        if (kind > static_cast<u8>(PayloadKind::metrics))
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown payload kind");
        res.payload = static_cast<PayloadKind>(kind);
        const u8 flags = c.get_u8();
        if ((flags & ~(kResponseFlagCacheHit | kResponseFlagCoalesced)) != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown flags");
        res.stats.cache_hit = (flags & kResponseFlagCacheHit) != 0;
        res.stats.coalesced = (flags & kResponseFlagCoalesced) != 0;
        res.stats.splits_served = c.get_u32();
        res.detail = get_detail(c);
        const u64 wire_len = c.get_u64();
        // Success carries exactly one payload; errors carry none. Enforcing
        // the correlation keeps transports from trusting half-formed frames.
        if (res.ok() != (res.payload != PayloadKind::none) ||
            res.ok() != (wire_len != 0))
            fail(ErrorCode::malformed_frame,
                 std::string(ctx) + ": payload/status mismatch");
        if (wire_len != 0) {
            auto bytes = c.get_bytes(wire_len);
            res.wire = std::make_shared<const FinishedResponse>(
                format::ByteBuffer::section({bytes.begin(), bytes.end()}),
                res.stats.splits_served);
            res.stats.wire_bytes = wire_len;
        }
        return res;
    });
}

// ---- v2 streamed response framing ----

namespace {

constexpr u8 kStreamFlagCacheHit = 1;
constexpr u8 kStreamFlagCoalesced = 2;

/// Bytes of a body frame's header: preamble (magic, version, type), then
/// reserved, seq and payload length. The payload follows it directly.
constexpr std::size_t kStreamBodyHeader = kStreamBodyOverhead - 8;

/// The most a header's announced wire_bytes reserves up front, so a hostile
/// header cannot allocate without bound; a longer wire grows past it.
constexpr u64 kMaxWireReserve = u64{64} << 20;

void put_stream_preamble(std::vector<u8>& out, StreamFrameType type) {
    put_magic(out, kResponseMagic);
    out.push_back(kStreamVersion);
    out.push_back(static_cast<u8>(type));
}

void put_body_header(std::vector<u8>& out, u32 seq, u64 len) {
    put_stream_preamble(out, StreamFrameType::body);
    out.push_back(0);  // reserved
    put_u32(out, seq);
    put_u64(out, len);
}

/// FNV-1a state after the header of body frame `seq` carrying `len` bytes.
u64 body_header_state(u32 seq, u64 len) {
    std::vector<u8> head;
    put_body_header(head, seq, len);
    return format::fnv1a(head);
}

/// The stream preamble parser: magic and version, then the frame type.
StreamFrameType get_stream_preamble(Cursor& c) {
    check_magic(c, kResponseMagic, c.ctx);
    const u8 v = c.get_u8();
    if (v != kStreamVersion)
        fail(ErrorCode::unsupported_version,
             std::string(c.ctx) + ": unsupported version " + std::to_string(v));
    const u8 type = c.get_u8();
    if (type > static_cast<u8>(StreamFrameType::fin))
        fail(ErrorCode::malformed_frame,
             std::string(c.ctx) + ": unknown frame type");
    return static_cast<StreamFrameType>(type);
}

struct BodyHeader {
    u32 seq = 0;
    u64 len = 0;
};

/// The body-frame header parser, after the preamble (reserved, seq,
/// length), shared by decode_stream_frame and the reassembler's one-pass
/// path. The negotiated ceiling is enforced on the length field, before any
/// payload is materialized.
BodyHeader get_body_header(Cursor& c, u64 max_frame_bytes) {
    if (c.get_u8() != 0)
        fail(ErrorCode::malformed_frame,
             std::string(c.ctx) + ": reserved byte set");
    BodyHeader h;
    h.seq = c.get_u32();
    h.len = c.get_u64();
    if (max_frame_bytes != kNoFrameLimit && h.len > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             std::string(c.ctx) + ": " + std::to_string(h.len) +
                 " B body exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    if (h.len == 0)
        fail(ErrorCode::malformed_frame,
             std::string(c.ctx) + ": empty body frame");
    return h;
}

/// `frame`'s header, when it parses as a body frame whose length field is
/// the payload the frame holds; nullopt for any other frame.
std::optional<BodyHeader> own_body_header(std::span<const u8> frame,
                                          u64 max_frame_bytes) {
    if (frame.size() <= kStreamBodyOverhead) return std::nullopt;
    try {
        Cursor c{frame.first(kStreamBodyHeader), "stream frame"};
        if (get_stream_preamble(c) != StreamFrameType::body)
            return std::nullopt;
        const BodyHeader h = get_body_header(c, max_frame_bytes);
        if (h.len != frame.size() - kStreamBodyOverhead) return std::nullopt;
        return h;
    } catch (const Error&) {
        return std::nullopt;  // malformed: the verify-first path judges it
    }
}

}  // namespace

std::vector<u8> encode_stream_header(const StreamHeader& h) {
    std::vector<u8> out;
    put_stream_preamble(out, StreamFrameType::header);
    out.push_back(static_cast<u8>((h.cache_hit ? kStreamFlagCacheHit : 0) |
                                  (h.coalesced ? kStreamFlagCoalesced : 0)));
    put_u16(out, static_cast<u16>(h.code));
    out.push_back(static_cast<u8>(h.payload));
    out.push_back(0);  // reserved
    put_u32(out, h.splits);
    put_u64(out, h.wire_bytes);
    put_u64(out, h.max_frame_bytes);
    put_detail(out, h.detail);
    append_checksum(out);
    return out;
}

std::vector<u8> encode_stream_body(u32 seq, std::span<const u8> payload,
                                   u64 max_frame_bytes,
                                   std::optional<u64> checksum) {
    return encode_stream_body(seq, std::span(&payload, 1), max_frame_bytes,
                              checksum);
}

std::vector<u8> encode_stream_body(u32 seq,
                                   std::span<const std::span<const u8>> parts,
                                   u64 max_frame_bytes,
                                   std::optional<u64> checksum) {
    u64 len = 0;
    for (const std::span<const u8> part : parts) len += part.size();
    if (max_frame_bytes != kNoFrameLimit && len > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "stream body: " + std::to_string(len) +
                 " B payload exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    std::vector<u8> out;
    out.reserve(len + kStreamBodyOverhead);
    put_body_header(out, seq, len);
    for (const std::span<const u8> part : parts)
        out.insert(out.end(), part.begin(), part.end());
    put_u64(out, checksum ? *checksum : format::fnv1a(out));
    return out;
}

format::FrameSums body_frame_sums(u64 max_frame_bytes) {
    return {max_frame_bytes, &body_header_state};
}

std::vector<u8> encode_stream_fin(const StreamFin& fin) {
    std::vector<u8> out;
    put_stream_preamble(out, StreamFrameType::fin);
    out.push_back(0);  // reserved
    put_u16(out, static_cast<u16>(fin.code));
    put_u32(out, fin.body_frames);
    put_u32(out, fin.splits);
    put_u64(out, fin.wire_checksum);
    put_detail(out, fin.detail);
    append_checksum(out);
    return out;
}

StreamFrame decode_stream_frame(std::span<const u8> frame,
                                u64 max_frame_bytes) {
    const char* ctx = "stream frame";
    // The negotiated ceiling protects the receiver's body buffer; it is
    // enforced on the body length field below, before any payload is
    // materialized. Header and FIN frames are exempt: they are structurally
    // bounded by kMaxDetailLen regardless of the negotiated body size, and
    // a typed error header must never be masked by frame_too_large just
    // because its detail outgrew a small body ceiling. (A transport read
    // loop should cap its length prefix at
    // max_frame_bytes + kMaxDetailLen + overhead.)
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        StreamFrame f;
        f.type = get_stream_preamble(c);
        switch (f.type) {
            case StreamFrameType::header: {
                const u8 flags = c.get_u8();
                if ((flags & ~(kStreamFlagCacheHit | kStreamFlagCoalesced)) != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": unknown flags");
                f.header.cache_hit = (flags & kStreamFlagCacheHit) != 0;
                f.header.coalesced = (flags & kStreamFlagCoalesced) != 0;
                // Unknown codes are preserved (same contract as v1).
                f.header.code = static_cast<ErrorCode>(c.get_u16());
                const u8 kind = c.get_u8();
                if (kind > static_cast<u8>(PayloadKind::metrics))
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": unknown payload kind");
                f.header.payload = static_cast<PayloadKind>(kind);
                if (c.get_u8() != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": reserved byte set");
                f.header.splits = c.get_u32();
                f.header.wire_bytes = c.get_u64();
                f.header.max_frame_bytes = c.get_u64();
                f.header.detail = get_detail(c);
                const bool err = f.header.code != ErrorCode::ok;
                if (err != (f.header.payload == PayloadKind::none))
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": payload/status mismatch");
                break;
            }
            case StreamFrameType::body: {
                const BodyHeader h = get_body_header(c, max_frame_bytes);
                f.seq = h.seq;
                f.payload = c.get_bytes(h.len);
                break;
            }
            case StreamFrameType::fin: {
                if (c.get_u8() != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": reserved byte set");
                f.fin.code = static_cast<ErrorCode>(c.get_u16());
                f.fin.body_frames = c.get_u32();
                f.fin.splits = c.get_u32();
                f.fin.wire_checksum = c.get_u64();
                f.fin.detail = get_detail(c);
                break;
            }
        }
        return f;
    });
}

bool StreamReassembler::feed(std::span<const u8> frame) {
    if (done_)
        throw ProtocolError(ErrorCode::malformed_frame,
                            "stream reassembly: frame after completion");
    if (const auto body = own_body_header(frame, max_frame_)) {
        // One pass folds the frame checksum and the whole-wire digest.
        const auto payload = frame.subspan(kStreamBodyHeader, body->len);
        u64 sum = format::fnv1a(frame.first(kStreamBodyHeader));
        u64 digest = digest_;
        format::fnv1a2(payload, sum, digest);
        if (sum != format::stored_checksum(frame))
            fail(ErrorCode::checksum_mismatch,
                 "stream frame: checksum mismatch");
        accept_body(body->seq, payload, digest);
        return done_;
    }
    const StreamFrame f = decode_stream_frame(frame, max_frame_);
    switch (f.type) {
        case StreamFrameType::header: {
            if (have_header_)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: duplicate header");
            have_header_ = true;
            head_ = f.header;
            splits_ = head_.splits;
            if (head_.code != ErrorCode::ok)
                done_ = true;  // error: no body
            else
                wire_->reserve(std::min(head_.wire_bytes, kMaxWireReserve));
            break;
        }
        case StreamFrameType::body:
            // Not reached: a body frame that decodes is one of its own
            // length, which the one-pass path above already took.
            accept_body(f.seq, f.payload, format::fnv1a(f.payload, digest_));
            break;
        case StreamFrameType::fin: {
            if (!have_header_)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: FIN before header");
            if (f.fin.code != ErrorCode::ok)
                throw ProtocolError(f.fin.code,
                                    "stream aborted mid-way: " + f.fin.detail);
            if (f.fin.body_frames != next_seq_)
                throw ProtocolError(
                    ErrorCode::malformed_frame,
                    "stream reassembly: FIN reports " +
                        std::to_string(f.fin.body_frames) + " body frames, got " +
                        std::to_string(next_seq_));
            if (head_.wire_bytes != 0 && wire_->size() != head_.wire_bytes)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: body bytes do not "
                                    "reach the announced wire size");
            if (wire_->empty())
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: ok stream with no body");
            if (f.fin.wire_checksum != digest_)
                throw ProtocolError(ErrorCode::checksum_mismatch,
                                    "stream reassembly: whole-wire checksum "
                                    "mismatch");
            splits_ = f.fin.splits;
            done_ = true;
            break;
        }
    }
    return done_;
}

void StreamReassembler::accept_body(u32 seq, std::span<const u8> payload,
                                    u64 digest) {
    if (!have_header_)
        throw ProtocolError(ErrorCode::malformed_frame,
                            "stream reassembly: body before header");
    if (seq != next_seq_)
        throw ProtocolError(
            ErrorCode::malformed_frame,
            "stream reassembly: body frame " + std::to_string(seq) +
                " arrived, expected " + std::to_string(next_seq_));
    if (head_.wire_bytes != 0 &&
        wire_->size() + payload.size() > head_.wire_bytes)
        throw ProtocolError(ErrorCode::malformed_frame,
                            "stream reassembly: body bytes exceed the "
                            "announced wire size");
    ++next_seq_;
    digest_ = digest;
    wire_->insert(wire_->end(), payload.begin(), payload.end());
}

const StreamHeader& StreamReassembler::header() const {
    RECOIL_CHECK(have_header_, "stream reassembly: no header fed yet");
    return head_;
}

ServeResult StreamReassembler::result() const {
    RECOIL_CHECK(done_, "stream reassembly: stream not complete");
    ServeResult res;
    res.code = head_.code;
    res.detail = head_.detail;
    res.payload = head_.payload;
    res.stats.cache_hit = head_.cache_hit;
    res.stats.coalesced = head_.coalesced;
    res.stats.splits_served = splits_;
    if (res.ok()) {
        // View the accumulation buffer (it never mutates after done_):
        // handing out the wire costs no copy.
        res.wire = std::make_shared<const FinishedResponse>(
            format::ByteBuffer::view(*wire_, wire_), splits_);
        res.stats.wire_bytes = wire_->size();
    }
    return res;
}

}  // namespace recoil::serve
