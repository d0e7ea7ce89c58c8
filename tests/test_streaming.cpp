// Tests for the streaming serve pipeline: a ServeStream is a cursor over the
// finished response, framed as v2. Bit-exactness is the anchor — for every
// asset kind (static file, indexed file, chunked), for both full-asset and
// range requests, and for cold, warm and coalesced streams,
// concatenating all streamed body frames must yield exactly the bytes of the
// v1 materialized response, the header and FIN must announce its totals, and
// a resumed stream must reunite with the prefix a client kept. On top of
// that: hostile mid-stream frames surface as typed errors, unload()/evict()
// mid-stream never invalidates in-flight pieces (the stream holds its
// response and pins its asset), streams share serve()'s single flight, the
// stale-put gate holds for streams, a stream owns only its response's
// structural sections, and thousands of live streams cost no threads.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "serve/store.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

#if defined(__SANITIZE_THREAD__)
#define RECOIL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RECOIL_TSAN 1
#endif
#endif

namespace recoil::serve {
namespace {

constexpr u8 kAcceptStream = kAcceptAll | kAcceptStreamed;

std::vector<std::vector<u8>> collect_frames(ServeStream stream) {
    std::vector<std::vector<u8>> frames;
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));
    return frames;
}

ServeResult reassemble(const std::vector<std::vector<u8>>& frames,
                       u64 max_frame_bytes = kNoFrameLimit) {
    StreamReassembler ra(max_frame_bytes);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const bool done = ra.feed(frames[i]);
        EXPECT_EQ(done, i + 1 == frames.size()) << "frame " << i;
    }
    return ra.result();
}

/// Recompute the FNV trailer after tampering, as an attacker can.
std::vector<u8> reseal(std::vector<u8> f) {
    f.resize(f.size() - 8);
    const u64 sum = format::fnv1a(f);
    for (int i = 0; i < 8; ++i) f.push_back(static_cast<u8>(sum >> (8 * i)));
    return f;
}

/// One asset of every kind over the same symbol stream.
struct StreamingFixture : ::testing::Test {
    static constexpr u64 kN = 60000;
    std::vector<u8> data;
    /// Runs inside every miss combine when set: a test parks the flight's
    /// leader here until its followers have joined. Set and reset only while
    /// no request is in flight.
    std::function<void()> on_combine;
    ContentServer server;

    static ServerOptions hooked(StreamingFixture* self) {
        ServerOptions opt;
        opt.combine_hook = [self](const std::string&) {
            if (self->on_combine) self->on_combine();
        };
        return opt;
    }

    /// Park the combining leader until `followers` requests wait on its
    /// flight; counts the combines in `combines`.
    void hold_leader_until(u64 followers, std::atomic<int>& combines) {
        on_combine = [this, followers, &combines] {
            ++combines;
            while (server.coalescing_waiters() < followers)
                std::this_thread::yield();
        };
    }

    StreamingFixture()
        : data(test::geometric_symbols<u8>(kN, 0.55, 256, 11)),
          server(hooked(this)) {
        server.store().encode_bytes("static", data, 16);
        server.store().add_file("indexed", test::indexed_file(data, 16));
        stream::ChunkedEncoder enc({11, 8});
        for (u64 off = 0; off < kN; off += kN / 4)
            enc.add_chunk(std::span<const u8>(data).subspan(off, kN / 4));
        server.store().add_chunked("chunked", enc.finish());
    }
};

TEST_F(StreamingFixture, StreamedBytesAreBitExactWithV1ForEveryKindAndShape) {
    // Small frames force many body frames; the reassembly must still equal
    // the single materialized wire byte for byte, however the stream was
    // served, and header and FIN must announce the v1 totals.
    StreamOptions opt;
    opt.max_frame_bytes = 4096;
    const u64 mf = opt.max_frame_bytes;
    for (const char* name : {"static", "indexed", "chunked"}) {
        for (const bool ranged : {false, true}) {
            ServeRequest req{name, 8, std::nullopt, kAcceptStream};
            if (ranged) req.range = {{kN / 3, kN / 3 + 9000}};
            const std::string shape =
                std::string(name) + (ranged ? " range" : " full");
            server.cache().clear();
            const ServeResult ref = server.serve(req);
            ASSERT_TRUE(ref.ok()) << shape << ": " << ref.detail;
            const u64 wire = ref.wire->size();

            const auto check = [&](const char* how, ServeStream stream) {
                const auto frames = collect_frames(std::move(stream));
                ASSERT_GE(frames.size(), 3u) << shape << " " << how;
                const StreamHeader h =
                    decode_stream_frame(frames.front()).header;
                const StreamFin fin = decode_stream_frame(frames.back()).fin;
                EXPECT_EQ(h.wire_bytes, wire) << shape << " " << how;
                EXPECT_EQ(h.splits, ref.stats.splits_served)
                    << shape << " " << how;
                EXPECT_EQ(fin.splits, ref.stats.splits_served)
                    << shape << " " << how;
                const ServeResult got = reassemble(frames, mf);
                ASSERT_TRUE(got.ok()) << shape << " " << how << ": "
                                      << got.detail;
                EXPECT_EQ(got.payload, ref.payload) << shape << " " << how;
                EXPECT_EQ(got.stats.splits_served, ref.stats.splits_served)
                    << shape << " " << how;
                ASSERT_NE(got.wire, nullptr);
                EXPECT_EQ(*got.wire, *ref.wire)
                    << shape << " " << how
                    << ": streamed reassembly diverges from the v1 wire";
            };
            server.cache().clear();
            check("cold", server.serve_stream(req, opt));
            check("warm", server.serve_stream(req, opt));
            // A stream holds its response, not the cache entry: clearing
            // the cache mid-stream changes nothing.
            ServeStream held = server.serve_stream(req, opt);
            server.cache().clear();
            check("entry dropped", std::move(held));

            // Coalesced: a v1 leader holds in its combine until the stream
            // has joined its flight.
            server.cache().clear();
            std::atomic<int> combines{0};
            hold_leader_until(1, combines);
            std::thread leader([&] { (void)server.serve(req); });
            while (combines.load() == 0) std::this_thread::yield();
            ServeStream follower = server.serve_stream(req, opt);
            leader.join();
            on_combine = nullptr;
            EXPECT_TRUE(follower.head().stats.coalesced) << shape;
            check("coalesced", std::move(follower));

            // Resume sweep: a client that kept the first `off` bytes gets
            // the tail, and prefix + tail is the v1 wire; past the end is a
            // typed bad_request header.
            const auto original_header =
                collect_frames(server.serve_stream(req, opt)).front();
            for (const bool cold : {false, true}) {
                for (const u64 off : {u64{1}, mf - 1, mf, wire / 2, wire - 1,
                                      wire, wire + 1}) {
                    ServeRequest resumed = req;
                    resumed.resume_offset = off;
                    if (cold) server.cache().clear();
                    const auto tail =
                        collect_frames(server.serve_stream(resumed, opt));
                    if (off > wire) {
                        ASSERT_EQ(tail.size(), 1u) << shape << " @" << off;
                        EXPECT_EQ(decode_stream_frame(tail[0]).header.code,
                                  ErrorCode::bad_request)
                            << shape << " @" << off;
                        continue;
                    }
                    StreamReassembler ra(mf);
                    ra.feed(original_header);
                    u32 seq = 0;
                    for (u64 pos = 0; pos < off; pos += mf)
                        ra.feed(encode_stream_body(
                            seq++,
                            std::span<const u8>(*ref.wire).subspan(
                                pos, std::min(mf, off - pos)),
                            mf));
                    ra.begin_resume();
                    bool done = false;
                    for (const auto& f : tail) done = ra.feed(f);
                    ASSERT_TRUE(done) << shape << " @" << off;
                    EXPECT_EQ(*ra.result().wire, *ref.wire)
                        << shape << " resumed @" << off;
                }
            }
        }
    }
}

TEST_F(StreamingFixture, TrailerFoldEqualsTheWholeWireDigest) {
    // Container, RCS and RCR2 wires all end with the FNV-1a of the bytes
    // above them, so the FIN digest comes from the trailer alone.
    for (const char* name : {"static", "indexed", "chunked"}) {
        for (const bool ranged : {false, true}) {
            ServeRequest req{name, 8, std::nullopt};
            if (ranged) req.range = {{kN / 3, kN / 3 + 9000}};
            const ServeResult res = server.serve(req);
            ASSERT_TRUE(res.ok()) << name << ": " << res.detail;
            const std::span<const u8> wire(*res.wire);
            EXPECT_EQ(format::sealed_fnv1a(wire), format::fnv1a(wire))
                << name << (ranged ? " range" : " full");
            EXPECT_EQ(format::sealed_fnv1a(wire.last(8)), format::fnv1a(wire))
                << name << (ranged ? " range" : " full");
        }
    }
}

TEST_F(StreamingFixture, WarmStreamsReplayTheCacheEntry) {
    const ServeRequest req{"static", 8, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);  // populates the cache
    auto stream = server.serve_stream(req);
    EXPECT_TRUE(stream.head().stats.cache_hit);
    EXPECT_EQ(stream.head().stats.wire_bytes, ref.wire->size());
    const ServeResult got = reassemble(collect_frames(std::move(stream)));
    EXPECT_EQ(*got.wire, *ref.wire);
    EXPECT_TRUE(got.stats.cache_hit);
}

TEST_F(StreamingFixture, ErrorsAreASingleTypedHeaderFrame) {
    auto missing = collect_frames(
        server.serve_stream({"nope", 1, std::nullopt, kAcceptStream}));
    ASSERT_EQ(missing.size(), 1u);
    StreamReassembler ra;
    EXPECT_TRUE(ra.feed(missing[0]));
    EXPECT_EQ(ra.result().code, ErrorCode::unknown_asset);

    // Negotiation: a client that never accepted the streamed framing.
    auto refused = collect_frames(
        server.serve_stream({"static", 1, std::nullopt, kAcceptAll}));
    ASSERT_EQ(refused.size(), 1u);
    StreamReassembler ra2;
    EXPECT_TRUE(ra2.feed(refused[0]));
    EXPECT_EQ(ra2.result().code, ErrorCode::not_acceptable);

    auto bad_range = collect_frames(server.serve_stream(
        {"static", 1, {{kN, kN + 1}}, kAcceptStream}));
    ASSERT_EQ(bad_range.size(), 1u);
    StreamReassembler ra3;
    EXPECT_TRUE(ra3.feed(bad_range[0]));
    EXPECT_EQ(ra3.result().code, ErrorCode::invalid_range);
}

TEST_F(StreamingFixture, HostileMidStreamFramesAreTypedErrors) {
    StreamOptions opt;
    opt.max_frame_bytes = 4096;
    const auto frames = collect_frames(server.serve_stream(
        {"chunked", 4, std::nullopt, kAcceptStream}, opt));
    ASSERT_GE(frames.size(), 4u);

    // Truncation of any frame at any boundary: typed, never a crash.
    for (std::size_t fi : {std::size_t{0}, std::size_t{1}, frames.size() - 1}) {
        const auto& f = frames[fi];
        for (std::size_t len : {std::size_t{0}, std::size_t{3}, f.size() / 2,
                                f.size() - 1}) {
            std::vector<u8> cut(f.begin(), f.begin() + len);
            try {
                decode_stream_frame(cut);
                FAIL() << "frame " << fi << " truncated to " << len;
            } catch (const ProtocolError& e) {
                EXPECT_TRUE(e.code() == ErrorCode::malformed_frame ||
                            e.code() == ErrorCode::checksum_mismatch);
            }
        }
    }

    // A flipped bit anywhere in a body frame: the frame checksum catches it.
    {
        const auto& body = frames[1];
        for (std::size_t pos = 0; pos < body.size(); pos += 7) {
            std::vector<u8> bad = body;
            bad[pos] ^= 0x20;
            EXPECT_THROW(decode_stream_frame(bad), ProtocolError) << pos;
        }
    }

    // Resealed payload corruption: the per-frame checksum is defeated, so
    // the FIN's whole-wire FNV must catch it — typed checksum_mismatch.
    {
        auto bad = frames;
        bad[1][25] ^= 0x01;  // inside the body payload
        bad[1] = reseal(std::move(bad[1]));
        StreamReassembler ra(opt.max_frame_bytes);
        try {
            for (const auto& f : bad) ra.feed(f);
            FAIL() << "resealed mid-stream corruption was accepted";
        } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::checksum_mismatch);
        }
    }

    // Reordered / duplicated / dropped body frames: typed malformed_frame.
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        ra.feed(frames[1]);
        EXPECT_THROW(ra.feed(frames[1]), ProtocolError);  // duplicate seq
    }
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        EXPECT_THROW(ra.feed(frames[2]), ProtocolError);  // skipped seq
    }
    {
        StreamReassembler ra;
        EXPECT_THROW(ra.feed(frames[1]), ProtocolError);  // body before header
    }
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        EXPECT_THROW(ra.feed(frames.back()), ProtocolError);  // early FIN
    }
}

/// Feed `frames` (header, bodies, FIN) to a fresh reassembler with `bad` in
/// place of frame `at`: `bad` must be rejected with `code`, and the intact
/// frame fed after it must still complete the stream bit-exact with `wire`.
void expect_rejected_then_recovers(const std::vector<std::vector<u8>>& frames,
                                   std::size_t at, const std::vector<u8>& bad,
                                   ErrorCode code, u64 max_frame_bytes,
                                   std::span<const u8> wire,
                                   const std::string& what) {
    StreamReassembler ra(max_frame_bytes);
    for (std::size_t i = 0; i < at; ++i) ra.feed(frames[i]);
    try {
        ra.feed(bad);
        ADD_FAILURE() << what << ": damaged frame accepted";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    }
    bool done = false;
    for (std::size_t i = at; i < frames.size(); ++i) done = ra.feed(frames[i]);
    ASSERT_TRUE(done) << what;
    EXPECT_TRUE(*ra.result().wire == wire) << what << ": reassembly diverges";
}

TEST_F(StreamingFixture, EveryFlippedBodyBitIsAChecksumMismatchAndLeavesTheStreamWhole) {
    // The reassembler checks a body frame in one pass (frame checksum and
    // whole-wire digest together). A flipped bit anywhere in a body frame
    // (header fields, payload or checksum) must still end in
    // checksum_mismatch, as when every frame was verified before parsing,
    // and must leave the reassembler as it was.
    const ServeRequest req{"static", 8, {{kN / 3, kN / 3 + 9000}},
                           kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok()) << ref.detail;
    for (const u64 mf : {kDefaultMaxFrameBytes, u64{1024}}) {
        StreamOptions opt;
        opt.max_frame_bytes = mf;
        const auto frames = collect_frames(server.serve_stream(req, opt));
        // Every body frame of the default-size stream; one past the first
        // (seq 1) of the small-frame stream.
        const std::size_t first = mf == kDefaultMaxFrameBytes ? 1 : 2;
        const std::size_t last = mf == kDefaultMaxFrameBytes ? frames.size() - 1 : 3;
        ASSERT_GT(frames.size(), last) << "frame size " << mf;
        for (std::size_t at = first; at < last; ++at) {
            for (std::size_t pos = 0; pos < frames[at].size(); ++pos) {
                auto bad = frames[at];
                bad[pos] ^= static_cast<u8>(1u << (pos % 8));
                expect_rejected_then_recovers(
                    frames, at, bad, ErrorCode::checksum_mismatch, mf,
                    *ref.wire,
                    "frame size " + std::to_string(mf) + ", frame " +
                        std::to_string(at) + ", byte " + std::to_string(pos));
            }
        }
    }
}

TEST_F(StreamingFixture, ResealedStructuralDamageKeepsItsTypedCode) {
    // Damage an attacker reseals passes the frame checksum, so the frame's
    // structure and the stream's sequencing must reject it, with the code
    // the verify-first reassembler gave.
    const ServeRequest req{"chunked", 4, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok()) << ref.detail;
    constexpr u64 mf = 4096;
    StreamOptions opt;
    opt.max_frame_bytes = mf;
    const auto frames = collect_frames(server.serve_stream(req, opt));
    ASSERT_GE(frames.size(), 5u);
    // Body frame layout: magic 4, version, type, reserved @6, seq u32 @7,
    // length u64 @11, payload @19, then the checksum.
    const std::size_t at = 2;  // seq 1, a full frame
    const std::size_t last_body = frames.size() - 2;  // a shorter one
    ASSERT_EQ(frames[at].size(), 19 + mf + 8);
    ASSERT_LT(frames[last_body].size(), 19 + mf + 8);
    const auto damaged = [&](std::size_t frame, auto edit) {
        auto f = frames[frame];
        f.resize(f.size() - 8);
        edit(f);
        f.resize(f.size() + 8);
        return reseal(std::move(f));
    };
    const auto add_to_length = [](std::vector<u8>& f, i64 delta) {
        u64 len = 0;
        for (int i = 0; i < 8; ++i) len |= u64{f[11 + i]} << (8 * i);
        len += static_cast<u64>(delta);
        for (int i = 0; i < 8; ++i) f[11 + i] = static_cast<u8>(len >> (8 * i));
    };
    const auto grow = [&](std::vector<u8>& f) {
        f.push_back(0xEE);
        add_to_length(f, 1);
    };
    struct Case {
        const char* what;
        std::size_t frame;
        std::vector<u8> bad;
        ErrorCode code;
    };
    const std::vector<Case> cases = {
        {"wrong seq", at, damaged(at, [](auto& f) { f[7] = 5; }),
         ErrorCode::malformed_frame},
        {"length field one past the payload", last_body,
         damaged(last_body, [&](auto& f) { add_to_length(f, 1); }),
         ErrorCode::malformed_frame},
        {"length field one short of the payload", last_body,
         damaged(last_body, [&](auto& f) { add_to_length(f, -1); }),
         ErrorCode::malformed_frame},
        {"length field one short of a full payload", at,
         damaged(at, [&](auto& f) { add_to_length(f, -1); }),
         ErrorCode::malformed_frame},
        {"length field past the negotiated maximum", at,
         damaged(at, [&](auto& f) { add_to_length(f, 1); }),
         ErrorCode::frame_too_large},
        {"reserved byte set", at, damaged(at, [](auto& f) { f[6] = 1; }),
         ErrorCode::malformed_frame},
        {"body over the negotiated maximum", at, damaged(at, grow),
         ErrorCode::frame_too_large},
        {"body past the announced wire size", last_body,
         damaged(last_body, grow), ErrorCode::malformed_frame},
    };
    for (const Case& c : cases)
        expect_rejected_then_recovers(frames, c.frame, c.bad, c.code, mf,
                                      *ref.wire, c.what);
}

/// StreamingFixture plus wires of about 2.75 MB, three default-size (1 MiB)
/// body frames each: the regime where a cached stream sends the checksums
/// held with the finished response instead of hashing each frame.
struct LargeWireFixture : StreamingFixture {
    static constexpr u64 kBig = 2'750'000;
    std::vector<u8> big;

    LargeWireFixture() : big(kBig) {
        Xoshiro256 rng(23);
        for (u8& b : big) b = static_cast<u8>(rng());  // ~1 wire byte each
        server.store().encode_bytes("big_static", big, 16);
        server.store().add_file("big_indexed", test::indexed_file(big, 16));
        stream::ChunkedEncoder enc({11, 8});
        for (u64 off = 0; off < kBig; off += kBig / 4)
            enc.add_chunk(std::span<const u8>(big).subspan(off, kBig / 4));
        server.store().add_chunked("big_chunked", enc.finish());
    }

    /// Body frame `seq` as encode_stream_body builds it (hashing it) from
    /// the slice at `pos` of `wire`.
    static std::vector<u8> reference_body(u32 seq, std::span<const u8> wire,
                                          u64 pos, u64 mf) {
        const u64 n = std::min(mf, wire.size() - pos);
        return encode_stream_body(
            seq, std::span<const u8>(wire).subspan(pos, n), mf);
    }

    /// Every body frame of a stream of `wire` from byte `from` at `mf`-byte
    /// frames equals the reference frame.
    static void expect_reference_bodies(
        const std::vector<std::vector<u8>>& frames, std::span<const u8> wire,
        u64 from, u64 mf, const std::string& what) {
        const u64 bodies = (wire.size() - from + mf - 1) / mf;
        ASSERT_EQ(frames.size(), bodies + 2) << what;
        for (u64 k = 0; k < bodies; ++k)
            EXPECT_TRUE(frames[1 + k] ==
                        reference_body(static_cast<u32>(k), wire,
                                       from + k * mf, mf))
                << what << ": body frame " << k << " differs";
    }
};

TEST_F(LargeWireFixture, HeldFrameChecksumsReproduceEveryFrame) {
    constexpr u64 F = kDefaultMaxFrameBytes;
    StreamOptions small;
    small.max_frame_bytes = 4096;
    struct Shape {
        const char* name;
        std::optional<std::pair<u64, u64>> range;
    };
    for (const Shape& shape :
         {Shape{"big_static", std::nullopt}, Shape{"big_indexed", std::nullopt},
          Shape{"big_chunked", std::nullopt},
          Shape{"big_chunked", {{1000, kBig - 1000}}}}) {
        const ServeRequest req{shape.name, 8, shape.range, kAcceptStream};
        const std::string what =
            std::string(shape.name) + (shape.range ? " range" : " full");
        const ServeResult ref = server.serve(req);
        ASSERT_TRUE(ref.ok()) << what << ": " << ref.detail;
        const std::span<const u8> wire = *ref.wire;
        ASSERT_GE(wire.size(), 2'500'000u) << what;

        const auto check = [&](const char* how, ServeStream stream, u64 mf) {
            const auto frames = collect_frames(std::move(stream));
            expect_reference_bodies(frames, wire, 0, mf, what + " " + how);
            const ServeResult got = reassemble(frames, mf);
            ASSERT_TRUE(got.ok()) << what << " " << how;
            EXPECT_TRUE(*got.wire == wire) << what << " " << how;
        };
        server.cache().clear();
        ServeStream cold = server.serve_stream(req);
        EXPECT_FALSE(cold.head().stats.cache_hit) << what;
        check("cold", std::move(cold), F);
        ServeStream warm = server.serve_stream(req);
        EXPECT_TRUE(warm.head().stats.cache_hit) << what;
        check("warm", std::move(warm), F);
        check("4096-byte frames", server.serve_stream(req, small), 4096);

        server.cache().clear();
        std::atomic<int> combines{0};
        hold_leader_until(1, combines);
        std::thread leader([&] { (void)server.serve(req); });
        while (combines.load() == 0) std::this_thread::yield();
        ServeStream follower = server.serve_stream(req);
        leader.join();
        on_combine = nullptr;
        EXPECT_TRUE(follower.head().stats.coalesced) << what;
        check("coalesced", std::move(follower), F);

        // Resumed streams are framed from the resume offset, not on the
        // held frame boundaries, and are hashed as they are built.
        const auto header = collect_frames(server.serve_stream(req)).front();
        for (const u64 off : {u64{1}, F - 1, F + 1, u64{wire.size()} - 1}) {
            ServeRequest resumed = req;
            resumed.resume_offset = off;
            const auto tail = collect_frames(server.serve_stream(resumed));
            const std::string at = what + " resumed @" + std::to_string(off);
            expect_reference_bodies(tail, wire, off, F, at);
            StreamReassembler ra(F);
            ra.feed(header);
            u32 seq = 0;
            for (u64 pos = 0; pos < off; pos += F)
                ra.feed(encode_stream_body(
                    seq++,
                    std::span<const u8>(wire).subspan(pos,
                                                      std::min(F, off - pos)),
                    F));
            ra.begin_resume();
            bool done = false;
            for (const auto& f : tail) done = ra.feed(f);
            ASSERT_TRUE(done) << at;
            EXPECT_TRUE(*ra.result().wire == wire) << at;
        }
    }
}

TEST(StreamingProtocol, FrameTooLargeIsEnforcedAtBothBoundaries) {
    const std::vector<u8> payload(2048, 0xAB);

    // v2 encode: an oversized body is never produced.
    try {
        encode_stream_body(0, payload, 1024);
        FAIL() << "oversized body frame was encoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    // v2 decode: an oversized frame is rejected against the negotiated max.
    const auto frame = encode_stream_body(0, payload, kNoFrameLimit);
    try {
        decode_stream_frame(frame, 1024);
        FAIL() << "oversized body frame was decoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    EXPECT_NO_THROW(decode_stream_frame(frame, 2048));

    // Header and FIN frames are exempt from the body ceiling: a typed error
    // header with a long detail must come through under a small negotiated
    // max, not be masked as frame_too_large.
    StreamHeader err;
    err.code = ErrorCode::unknown_asset;
    err.detail = std::string(8192, 'x');
    const auto header_frame = encode_stream_header(err);
    ASSERT_GT(header_frame.size(), 1024u + 64u);
    const StreamFrame decoded = decode_stream_frame(header_frame, 1024);
    EXPECT_EQ(decoded.header.code, ErrorCode::unknown_asset);
    StreamFin abort_fin;
    abort_fin.code = ErrorCode::internal;
    abort_fin.detail = std::string(4096, 'y');
    EXPECT_NO_THROW(decode_stream_frame(encode_stream_fin(abort_fin), 1024));

    // v1 responses: the same negotiated ceiling applies whole-frame.
    ServeResult res;
    res.code = ErrorCode::ok;
    res.payload = PayloadKind::file;
    res.wire = std::make_shared<const FinishedResponse>(
        std::vector<u8>(4096, 0x5C));
    try {
        encode_response(res, 1000);
        FAIL() << "oversized v1 response was encoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    const auto v1 = encode_response(res);
    try {
        decode_response(v1, 1000);
        FAIL() << "oversized v1 response was decoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    EXPECT_NO_THROW(decode_response(v1, v1.size()));
}

TEST(StreamingLifecycle, UnloadAndEvictMidStreamKeepInFlightSegmentsValid) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "recoil_stream_lifecycle";
    fs::remove_all(dir);

    auto data = test::geometric_symbols<u8>(120000, 0.6, 256, 5);
    ContentServer server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    server.store().encode_bytes("asset", data, 32);
    const ServeRequest req{"asset", 8, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok());

    // unload() drops the in-memory asset, so the next resolve demand-loads a
    // zero-copy view of the mmapped container — the regime where mid-stream
    // lifecycle races would bite if the stream did not pin its buffers.
    ASSERT_TRUE(server.store().unload("asset"));
    StreamOptions opt;
    opt.max_frame_bytes = 4096;
    auto stream = server.serve_stream(req, opt);  // views the reloaded asset
    std::vector<std::vector<u8>> frames;
    frames.push_back(*stream.next_frame());  // header
    frames.push_back(*stream.next_frame());  // first body

    // Half-drained: drop the asset from memory, then evict it everywhere
    // (cache, memory, disk). The stream holds the asset and its mapping.
    ASSERT_TRUE(server.store().unload("asset"));
    frames.push_back(*stream.next_frame());
    ASSERT_TRUE(server.evict_asset("asset"));
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));

    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire)
        << "segments emitted across unload/evict diverged";

    // The asset is really gone for new requests.
    EXPECT_EQ(server.serve(req).code, ErrorCode::unknown_asset);
    fs::remove_all(dir);
}

TEST_F(StreamingFixture, StreamingLeaderCoalescesMaterializedAndStreamedFollowers) {
    const ServeRequest req{"static", 6, std::nullopt, kAcceptStream};
    server.cache().clear();
    const auto before = server.totals();
    StreamOptions opt;
    opt.max_frame_bytes = 2048;

    // The streamed leader holds inside its combine until both followers —
    // one materialized, one streamed — wait on its flight.
    std::atomic<int> combines{0};
    hold_leader_until(2, combines);
    std::vector<std::vector<u8>> leader_frames, follower_frames;
    std::thread leader(
        [&] { leader_frames = collect_frames(server.serve_stream(req, opt)); });
    while (combines.load() == 0) std::this_thread::yield();
    ServeResult follower_res;
    std::thread materialized([&] {
        follower_res = server.serve(ServeRequest{"static", 6, std::nullopt});
    });
    std::thread streamed([&] {
        follower_frames = collect_frames(server.serve_stream(req, opt));
    });
    leader.join();
    materialized.join();
    streamed.join();
    on_combine = nullptr;

    EXPECT_EQ(combines.load(), 1);
    const ServeResult got_leader =
        reassemble(leader_frames, opt.max_frame_bytes);
    const ServeResult got_follower =
        reassemble(follower_frames, opt.max_frame_bytes);
    ASSERT_TRUE(got_leader.ok());
    ASSERT_TRUE(got_follower.ok());
    ASSERT_TRUE(follower_res.ok()) << follower_res.detail;
    EXPECT_FALSE(got_leader.stats.coalesced);
    EXPECT_TRUE(got_follower.stats.coalesced);
    EXPECT_TRUE(follower_res.stats.coalesced);
    EXPECT_EQ(*got_follower.wire, *got_leader.wire);
    EXPECT_EQ(*follower_res.wire, *got_leader.wire);

    const auto after = server.totals();
    EXPECT_EQ(after.coalesced_requests - before.coalesced_requests, 2u);
    // The leader's wire became the cache entry: the next request hits.
    auto warm = server.serve(ServeRequest{"static", 6, std::nullopt});
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(*warm.wire, *got_leader.wire);
}

TEST_F(StreamingFixture, AbandonedLeaderStillCompletesFollowersAndCache) {
    const ServeRequest req{"indexed", 4, std::nullopt, kAcceptStream};
    server.cache().clear();
    StreamOptions opt;
    opt.max_frame_bytes = 1024;

    // The streamed leader holds in its combine until the follower waits,
    // then walks away after the header: the finished wire has already
    // reached the follower and the cache.
    std::atomic<int> combines{0};
    hold_leader_until(1, combines);
    std::thread leader([&] {
        auto stream = server.serve_stream(req, opt);
        (void)stream.next_frame();  // header only, then walk away
    });
    while (combines.load() == 0) std::this_thread::yield();
    ServeResult follower_res;
    std::thread follower([&] {
        follower_res = server.serve(ServeRequest{"indexed", 4, std::nullopt});
    });
    leader.join();
    follower.join();
    on_combine = nullptr;

    EXPECT_EQ(combines.load(), 1);
    ASSERT_TRUE(follower_res.ok()) << follower_res.detail;
    EXPECT_TRUE(follower_res.stats.coalesced);
    const ServeResult ref =
        server.serve(ServeRequest{"indexed", 4, std::nullopt});
    EXPECT_TRUE(ref.stats.cache_hit);
    EXPECT_EQ(*follower_res.wire, *ref.wire);
}

TEST_F(StreamingFixture, EraseMidStreamKeepsTheStreamBitExact) {
    // Erase the asset under a half-drained stream: erasing drops the cache
    // entry, and the stream's response and pinned asset must keep the
    // storage its pieces view valid.
    const ServeRequest req{"chunked", 4, std::nullopt, kAcceptStream};
    server.cache().clear();
    const ServeResult ref =
        server.serve(ServeRequest{"chunked", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    StreamOptions opt;
    opt.max_frame_bytes = 512;
    auto stream = server.serve_stream(req, opt);  // a warm hit
    ASSERT_TRUE(stream.head().stats.cache_hit);
    std::vector<std::vector<u8>> frames;
    frames.push_back(*stream.next_frame());  // header
    frames.push_back(*stream.next_frame());  // first body

    ASSERT_TRUE(server.store().erase("chunked"));
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));

    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire)
        << "draining after erase served different bytes";
}

TEST(StreamingGate, StalePutGateHoldsForStreams) {
    // Evict the asset while its stream is being produced: the bytes keep
    // flowing (requests that began before the eviction complete), but the
    // assembled wire must NOT enter the cache for a dead generation.
    auto data = test::geometric_symbols<u8>(30000, 0.5, 256, 21);
    ContentServer reference;
    reference.store().encode_bytes("doomed", data, 8);
    const ServeResult ref = reference.serve({"doomed", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    ContentServer* srv = nullptr;
    bool evicted = false;
    ServerOptions hooked_opt;
    hooked_opt.combine_hook = [&](const std::string&) {
        if (!evicted) {
            evicted = true;
            srv->evict_asset("doomed");
        }
    };
    ContentServer hooked(hooked_opt);
    srv = &hooked;
    hooked.store().encode_bytes("doomed", data, 8);
    auto frames = collect_frames(
        hooked.serve_stream({"doomed", 4, std::nullopt, kAcceptStream}));
    const ServeResult got = reassemble(frames);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire);
    EXPECT_EQ(hooked.cache().stats().insertions, 0u)
        << "a stream for an evicted asset re-entered the cache";
    EXPECT_EQ(hooked.serve({"doomed", 4, std::nullopt}).code,
              ErrorCode::unknown_asset);
}

TEST(StreamingMemory, StreamOwnsOnlyItsStructuralSections) {
    auto data = test::geometric_symbols<u8>(1'500'000, 0.8, 256, 9);
    ContentServer server;
    server.store().encode_bytes("big", data, 64);
    const ServeRequest req{"big", 64, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok());
    const u64 wire = ref.wire->size();
    ASSERT_GT(wire, u64{1} << 19);  // far above one frame

    StreamOptions opt;
    opt.max_frame_bytes = 16384;
    auto stream = server.serve_stream(req, opt);  // the cached piece list
    std::vector<std::vector<u8>> frames;
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));
    const u64 peak_owned = stream.peak_owned_bytes();

    EXPECT_LT(peak_owned, wire / 8)
        << "stream held O(wire) owned bytes; a stream should hold its "
           "response's structural sections plus one frame";
    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    EXPECT_EQ(*got.wire, *ref.wire);
}

/// Current thread count of this process, from /proc (Linux only — the CI
/// and the container this repo targets).
int process_thread_count() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            std::istringstream ss(line.substr(8));
            int n = 0;
            ss >> n;
            return n;
        }
    }
    return -1;
}

#ifdef RECOIL_TSAN
constexpr int kSoakStreams = 500;  // TSan instruments every sync op; scale
#else
constexpr int kSoakStreams = 10000;
#endif

TEST(StreamingSoak, TenThousandStreamsCostNoThreads) {
    ServerOptions opt;
    opt.telemetry = false;
    ContentServer server(opt);
    std::vector<u8> data(2000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>((i * 131) % 251);
    server.store().encode_bytes("soak", data, 4);
    const ServeResult ref = server.serve({"soak", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    const int before = process_thread_count();
    ASSERT_GT(before, 0);
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;

    // Small frames so every stream is left mid-wire: all kSoakStreams live
    // streams are half-read cursors at once, which is exactly what must NOT
    // cost a thread each.
    StreamOptions sopt;
    sopt.max_frame_bytes = 256;
    std::vector<ServeStream> streams;
    streams.reserve(static_cast<std::size_t>(kSoakStreams));
    int peak_threads = before;
    for (int i = 0; i < kSoakStreams; ++i) {
        streams.push_back(server.serve_stream(
            {"soak", 4, std::nullopt, kAcceptAll | kAcceptStreamed}, sopt));
        // Pull the header + first body frame: the stream is live mid-wire.
        ASSERT_TRUE(streams.back().next_frame().has_value());
        ASSERT_TRUE(streams.back().next_frame().has_value());
        if (i % 256 == 0)
            peak_threads = std::max(peak_threads, process_thread_count());
    }
    peak_threads = std::max(peak_threads, process_thread_count());
    // Everything the process had before, plus slack for lazily created
    // runtime threads — nowhere near kSoakStreams.
    EXPECT_LE(peak_threads, before + static_cast<int>(2 * hw) + 8)
        << "streams are costing dedicated threads again";

    // Drain a sample of fresh streams fully and check bit-exactness end to
    // end while the live fleet is still open.
    for (int i = 0; i < 20; ++i) {
        StreamReassembler client(sopt.max_frame_bytes);
        bool done = false;
        ServeStream fresh = server.serve_stream(
            {"soak", 4, std::nullopt, kAcceptAll | kAcceptStreamed}, sopt);
        while (auto f = fresh.next_frame()) done = client.feed(*f);
        ASSERT_TRUE(done);
        const ServeResult got = client.result();
        ASSERT_TRUE(got.ok()) << got.detail;
        EXPECT_EQ(*got.wire, *ref.wire);
    }
    // Mass abandon: dropping half-read streams must not leak threads either.
    streams.clear();

    EXPECT_LE(process_thread_count(), before + static_cast<int>(2 * hw) + 8);
}

TEST(CacheGauges, PeakBytesIsAHighWaterMarkThatSurvivesClear) {
    MetadataCache cache(1000);
    auto wire = [](std::size_t n) {
        return std::make_shared<const FinishedResponse>(
            std::vector<u8>(n, 1));
    };
    cache.put("a", 1, wire(400));
    cache.put("b", 1, wire(500));
    EXPECT_EQ(cache.stats().peak_bytes, 900u);
    cache.put("c", 1, wire(300));  // evicts down, but peak saw 1200
    EXPECT_EQ(cache.stats().peak_bytes, 1200u);
    EXPECT_LE(cache.stats().bytes, 1000u);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().peak_bytes, 1200u) << "peak must survive clear()";
    cache.put("d", 1, wire(100));
    EXPECT_EQ(cache.stats().peak_bytes, 1200u);
}

TEST(StoreScrub, VerifyReportsCorruptAssetsAsTypedIssues) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "recoil_verify_store";
    fs::remove_all(dir);
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("good", test::geometric_symbols<u8>(9000, 0.5, 256, 1), 4);
        store.encode_bytes("bad", test::geometric_symbols<u8>(9000, 0.5, 256, 2), 4);
    }
    {
        DiskStore store(dir);
        EXPECT_TRUE(store.verify().ok());
        EXPECT_EQ(store.verify().checked, 2u);
    }
    // Flip one byte in the middle of "bad"'s container.
    for (const auto& entry : fs::directory_iterator(dir)) {
        const auto name = entry.path().filename().string();
        if (name.starts_with("bad") && entry.path().extension() == ".rca") {
            std::fstream f(entry.path(),
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
            char c;
            f.seekg(static_cast<std::streamoff>(entry.file_size() / 2));
            f.read(&c, 1);
            c = static_cast<char>(c ^ 0x10);
            f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
            f.write(&c, 1);
        }
    }
    DiskStore store(dir);
    const auto report = store.verify();
    EXPECT_EQ(report.checked, 2u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].name, "bad");
    EXPECT_EQ(report.issues[0].status, StoreStatus::bad_container);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace recoil::serve
