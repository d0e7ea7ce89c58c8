// Tests for the versioned serve wire protocol: request/response frames
// round-trip bit-exactly, every truncation and byte flip surfaces as a typed
// ProtocolError (never a crash), and ContentServer::serve_frame speaks the
// protocol end to end — including typed error responses for hostile frames.

#include <gtest/gtest.h>

#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

namespace recoil::serve {
namespace {

ServeRequest sample_request(bool with_range) {
    ServeRequest req;
    req.asset = "assets/video/trailer.rcf";
    req.parallelism = 2176;
    req.accept = kAcceptFile | kAcceptRange;
    if (with_range) req.range = {{123456789, 987654321}};
    return req;
}

TEST(Protocol, RequestRoundTripsExactly) {
    for (bool with_range : {false, true}) {
        const ServeRequest req = sample_request(with_range);
        const auto frame = encode_request(req);
        const ServeRequest got = decode_request(frame);
        EXPECT_EQ(got.asset, req.asset);
        EXPECT_EQ(got.parallelism, req.parallelism);
        EXPECT_EQ(got.accept, req.accept);
        EXPECT_EQ(got.range, req.range);
        // Deterministic serialization: re-encoding reproduces the frame.
        EXPECT_EQ(encode_request(got), frame);
    }
}

TEST(Protocol, ResponseRoundTripsExactly) {
    ServeResult res;
    res.code = ErrorCode::ok;
    res.payload = PayloadKind::range;
    res.wire = std::make_shared<const FinishedResponse>(
        std::vector<u8>{1, 2, 3, 250, 251, 252});
    res.stats.splits_served = 17;
    res.stats.cache_hit = true;
    res.stats.coalesced = true;
    res.stats.wire_bytes = res.wire->size();

    const auto frame = encode_response(res);
    const ServeResult got = decode_response(frame);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.payload, PayloadKind::range);
    ASSERT_NE(got.wire, nullptr);
    EXPECT_EQ(*got.wire, *res.wire);
    EXPECT_EQ(got.stats.splits_served, 17u);
    EXPECT_TRUE(got.stats.cache_hit);
    EXPECT_TRUE(got.stats.coalesced);
    EXPECT_EQ(got.stats.wire_bytes, res.wire->size());
    EXPECT_EQ(encode_response(got), frame);
}

TEST(Protocol, ErrorResponseCarriesCodeAndDetailButNoPayload) {
    ServeResult res;
    res.code = ErrorCode::invalid_range;
    res.detail = "serve: range [9, 5) outside asset of 100 symbols";

    const ServeResult got = decode_response(encode_response(res));
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code, ErrorCode::invalid_range);
    EXPECT_EQ(got.detail, res.detail);
    EXPECT_EQ(got.payload, PayloadKind::none);
    EXPECT_EQ(got.wire, nullptr);
}

TEST(Protocol, EncoderRejectsRequestsItsOwnDecoderWould) {
    // decode(encode(r)) must hold for every frame the encoder emits, so the
    // encoder fails fast on inputs the decoder's validation would bounce.
    EXPECT_THROW(encode_request(ServeRequest{}), Error);  // empty asset name
    ServeRequest zero_p = sample_request(false);
    zero_p.parallelism = 0;
    EXPECT_THROW(encode_request(zero_p), Error);
    ServeRequest no_accept = sample_request(false);
    no_accept.accept = 0;
    EXPECT_THROW(encode_request(no_accept), Error);
}

TEST(Protocol, EveryErrorCodeHasAName) {
    for (u16 c = 0; c <= static_cast<u16>(ErrorCode::frame_too_large); ++c)
        EXPECT_STRNE(error_name(static_cast<ErrorCode>(c)), "unknown") << c;
}

/// Decoding must fail with a typed code — malformed_frame for structural
/// damage, checksum_mismatch for payload damage — and must never crash.
template <typename DecodeFn>
void expect_typed_rejection(const std::vector<u8>& frame, DecodeFn&& decode) {
    // Truncation at every byte boundary, including the empty frame.
    for (std::size_t len = 0; len < frame.size(); ++len) {
        std::vector<u8> cut(frame.begin(), frame.begin() + len);
        try {
            decode(cut);
            FAIL() << "truncation to " << len << " bytes was accepted";
        } catch (const ProtocolError& e) {
            EXPECT_TRUE(e.code() == ErrorCode::malformed_frame ||
                        e.code() == ErrorCode::checksum_mismatch)
                << "len " << len << ": " << error_name(e.code());
        }
    }
    // A flipped bit at every byte offset: the frame checksum catches all of
    // them (flips inside the trailer included).
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
        std::vector<u8> bad = frame;
        bad[pos] ^= 0x10;
        try {
            decode(bad);
            FAIL() << "flip at " << pos << " was accepted";
        } catch (const ProtocolError& e) {
            EXPECT_NE(e.code(), ErrorCode::ok) << "pos " << pos;
        }
    }
}

TEST(Protocol, CorruptRequestFramesAreTypedErrors) {
    expect_typed_rejection(encode_request(sample_request(true)),
                           [](const std::vector<u8>& f) { decode_request(f); });
}

TEST(Protocol, CorruptResponseFramesAreTypedErrors) {
    ServeResult res;
    res.code = ErrorCode::ok;
    res.payload = PayloadKind::file;
    res.wire = std::make_shared<const FinishedResponse>(
        test::geometric_symbols<u8>(96, 0.7, 256, 3));
    res.stats.splits_served = 4;
    expect_typed_rejection(encode_response(res),
                           [](const std::vector<u8>& f) { decode_response(f); });
}

TEST(Protocol, AppendedErrorCodesArePreservedNotRejected) {
    // The contract lets servers append new codes without a version bump; a
    // v1 client must surface them, not reject the frame as malformed.
    ServeResult res;
    res.code = ErrorCode::unknown_asset;
    res.detail = "from the future";
    auto frame = encode_response(res);
    frame[5] = 200;  // low byte of the u16 code at offset 5
    frame[6] = 0;
    const ServeResult got = decode_response(test::reseal(std::move(frame)));
    EXPECT_EQ(static_cast<u16>(got.code), 200u);
    EXPECT_FALSE(got.ok());
    EXPECT_STREQ(error_name(got.code), "unknown");
    EXPECT_EQ(got.detail, "from the future");
}

TEST(Protocol, ResealedHostileFramesStillRejected) {
    // Recomputing the checksum defeats the trailer, so structural checks
    // must hold on their own.
    const auto good = encode_request(sample_request(false));

    auto bad_version = good;
    bad_version[4] = 99;
    EXPECT_THROW(
        try { decode_request(test::reseal(bad_version)); } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::unsupported_version);
            throw;
        },
        ProtocolError);

    auto bad_accept = good;
    bad_accept[6] = 0;  // accepts nothing
    EXPECT_THROW(
        try { decode_request(test::reseal(bad_accept)); } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::bad_request);
            throw;
        },
        ProtocolError);

    auto bad_name_len = good;  // name length wraps past the frame
    for (int i = 0; i < 4; ++i) bad_name_len[12 + i] = 0xFF;
    EXPECT_THROW(decode_request(test::reseal(bad_name_len)), ProtocolError);

    // An ok response claiming no payload (or an error smuggling one) is
    // structurally inconsistent.
    ServeResult err;
    err.code = ErrorCode::unknown_asset;
    auto frame = encode_response(err);
    frame[5] = 0;  // code -> ok, but payload_kind stays none
    EXPECT_THROW(
        try { decode_response(test::reseal(frame)); } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::malformed_frame);
            throw;
        },
        ProtocolError);
}

TEST(Protocol, ServeFrameSpeaksTheProtocolEndToEnd) {
    ContentServer server;
    auto data = test::geometric_symbols<u8>(50000, 0.6, 256, 21);
    server.store().encode_bytes("asset", data, 16);

    ServeRequest req{"asset", 8, std::nullopt};
    auto response_frame = *server.serve_frame(encode_request(req)).next_frame();
    auto res = decode_response(response_frame);
    ASSERT_TRUE(res.ok()) << res.detail;
    EXPECT_EQ(res.payload, PayloadKind::file);
    auto got = format::load_recoil_file(*res.wire);
    EXPECT_LE(got.metadata.num_splits(), 8u);

    // Unknown asset: a well-formed frame with a typed error code back.
    auto missing = decode_response(*server.serve_frame(
        encode_request(ServeRequest{"nope", 1, std::nullopt})).next_frame());
    EXPECT_EQ(missing.code, ErrorCode::unknown_asset);

    // Garbage in: typed error response out, not an exception or a crash.
    const std::vector<u8> garbage{'R', 'C', 'R', 'Q', 9, 9, 9, 9, 9, 9,
                                  9,   9,   9,   9,   9, 9, 9, 9, 9, 9};
    auto rejected = decode_response(*server.serve_frame(garbage).next_frame());
    EXPECT_EQ(rejected.code, ErrorCode::checksum_mismatch);

    // Range request over the frame boundary decodes to the right bytes.
    auto range_res = decode_response(*server.serve_frame(
        encode_request(ServeRequest{"asset", 1, {{100, 1100}}})).next_frame());
    ASSERT_TRUE(range_res.ok()) << range_res.detail;
    EXPECT_EQ(range_res.payload, PayloadKind::range);
    auto part = decode_range_wire(*range_res.wire);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + 100));

    const auto t = server.totals();
    EXPECT_EQ(t.requests, 4u);
    EXPECT_EQ(t.failures, 2u);
}

TEST(BodyFrameSums, HeldChecksumsEqualEncodeStreamBodyAtEveryTrailerPlacement) {
    // A sink asked for body-frame checksums folds each frame while the wire
    // is built. Whatever the piece boundaries and the frame size (a server
    // streams at its own, down to one trailer's 8 bytes), every held
    // checksum must be the one encode_stream_body computes for that F-byte
    // slice of the sealed wire. The totals put the 8-byte trailer whole in
    // the last frame, split across the last two, and alone in its own frame.
    for (const u64 F : {u64{8}, u64{9}, u64{17}, u64{256}, u64{4096},
                        kDefaultMaxFrameBytes}) {
        std::vector<u8> data(2 * F + 16);
        Xoshiro256 rng(17);
        for (u8& b : data) b = static_cast<u8>(rng());
        const auto keeper = std::make_shared<const std::vector<u8>>(data);
        const std::span<const u8> all(*keeper);

        std::vector<u64> totals;
        for (const u64 base : {F, 2 * F})
            for (u64 t = std::max(base, u64{17}) - 9; t <= base + 9; ++t)
                totals.push_back(t);
        for (const u64 total : totals) {
            const u64 body = total - 8;  // bytes above the trailer
            const std::string at = "frame size " + std::to_string(F) +
                                   ", total " + std::to_string(total);
            std::vector<u8> ref(data.begin(), data.begin() + body);
            format::wire::append_checksum(ref);
            std::vector<u64> want;
            for (u64 pos = 0; pos < total; pos += F) {
                const auto frame = encode_stream_body(
                    static_cast<u32>(want.size()),
                    std::span<const u8>(ref).subspan(pos,
                                                     std::min(F, total - pos)),
                    F);
                want.push_back(format::stored_checksum(frame));
            }

            // Piece cuts on and next to frame boundaries, plus 1-byte
            // pieces at either end; each cut set is one way to deliver the
            // bytes.
            const std::vector<std::vector<u64>> layouts = {
                {},
                {F - 1},
                {F},
                {F + 1},
                {1, F - 1, F, F + 1, 2 * F - 1, 2 * F, 2 * F + 1, body - 1},
            };
            for (std::size_t li = 0; li < layouts.size(); ++li) {
                format::VectorSink sink(body_frame_sums(F));
                u64 pos = 0;
                for (const u64 cut : layouts[li]) {
                    if (cut <= pos || cut >= body) continue;
                    sink.write(format::ByteBuffer::view(
                        all.subspan(pos, cut - pos), keeper));
                    pos = cut;
                }
                sink.write(format::ByteBuffer::view(
                    all.subspan(pos, body - pos), keeper));
                sink.seal();
                ASSERT_EQ(sink.out, ref) << at << " layout " << li;
                EXPECT_EQ(sink.bytes(), total);
                EXPECT_EQ(sink.frame_sums(), want) << at << " layout " << li;
            }
        }
    }
}

}  // namespace
}  // namespace recoil::serve
