// Container format tests: round-trip, the one-call decode (decode_file) of
// every payload shape, the §3.3 serving path, and failure injection (bit
// flips anywhere must be detected by the checksum; hostile id streams are
// typed errors).

#include <gtest/gtest.h>

#include <cmath>

#include "format/container.hpp"
#include "serve/range_wire.hpp"
#include "simd/dispatch.hpp"
#include "stream/chunked.hpp"
#include "test_util.hpp"
#include "util/cpu.hpp"
#include "util/xoshiro.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

/// Every backend this build and CPU grant, scalar first.
std::vector<simd::Backend> granted_backends() {
    std::vector<simd::Backend> backends{simd::Backend::Scalar};
    for (const simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::clamp_backend(b) == b) backends.push_back(b);
    return backends;
}

format::RecoilFile make_file(std::size_t n, u32 max_splits) {
    auto syms = test::geometric_symbols<u8>(n, 0.6, 256, n + max_splits);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, max_splits);
    return format::make_recoil_file(enc, m, 1);
}

TEST(Container, SaveLoadRoundTrip) {
    auto f = make_file(100000, 32);
    auto bytes = format::save_recoil_file(f);
    auto g = format::load_recoil_file(bytes);
    EXPECT_EQ(g.sym_width, f.sym_width);
    EXPECT_EQ(g.prob_bits, f.prob_bits);
    EXPECT_EQ(g.units, f.units);
    EXPECT_EQ(g.metadata.num_symbols, f.metadata.num_symbols);
    EXPECT_EQ(g.metadata.splits.size(), f.metadata.splits.size());
}

TEST(Container, DecodeAfterLoad) {
    auto syms = test::geometric_symbols<u8>(150000, 0.5, 256, 61);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 16);
    auto bytes = format::save_recoil_file(format::make_recoil_file(enc, m, 1));
    auto f = format::load_recoil_file(bytes);
    auto dec = format::decode_file(f);
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, ServeCombinedShrinksAndDecodes) {
    auto syms = test::geometric_symbols<u8>(400000, 0.6, 256, 62);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 256);
    auto f = format::make_recoil_file(enc, m, 1);
    auto large = format::save_recoil_file(f);
    auto small = format::save_recoil_file(f, combine_splits(f.metadata, 8));
    EXPECT_LT(small.size(), large.size());
    auto g = format::load_recoil_file(small);
    EXPECT_LE(g.metadata.num_splits(), 8u);
    auto dec = format::decode_file(g);
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

/// The latent dataset as an indexed u16 file at n = 16, carrying the
/// generating pdfs (what a real hyperprior decoder would reconstruct from
/// side information).
format::RecoilFile latent_file(const workload::LatentDataset& ds, u32 max_splits) {
    auto models = ds.build_models(16);
    auto enc =
        recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), models, max_splits);

    format::RecoilFile f;
    f.sym_width = 2;
    f.prob_bits = 16;
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    format::RecoilFile::IndexedPayload payload;
    for (double sigma : ds.bin_sigma) {
        std::vector<u64> counts(workload::kLatentAlphabet);
        const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
        for (u32 s = 0; s < workload::kLatentAlphabet; ++s) {
            const double r =
                static_cast<double>(static_cast<i32>(s) - workload::kLatentOffset);
            counts[s] = 1 + static_cast<u64>(std::exp(-r * r * inv2s2) * 1e12);
        }
        payload.freqs.push_back(quantize_pdf(counts, 16));
    }
    payload.ids = ds.ids;
    f.model = std::move(payload);
    return f;
}

TEST(Container, IndexedModelRoundTrip) {
    auto ds = workload::gen_latents("t", 60000, 2.0, 63);
    const format::RecoilFile f = latent_file(ds, 16);

    auto bytes = format::save_recoil_file(f);
    auto g = format::load_recoil_file(bytes);
    ASSERT_TRUE(g.is_indexed());
    auto dec = format::decode_file(g);  // two little-endian bytes per symbol
    const auto want = format::wire::le_bytes(ds.symbols);
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), want.begin()));
}

TEST(Container, BitFlipsDetected) {
    auto f = make_file(50000, 8);
    auto bytes = format::save_recoil_file(f);
    Xoshiro256 rng(64);
    for (int iter = 0; iter < 40; ++iter) {
        auto bad = bytes;
        const u64 pos = rng.below(bad.size());
        bad[pos] ^= static_cast<u8>(1u << rng.below(8));
        EXPECT_THROW(format::load_recoil_file(bad), Error) << "pos " << pos;
    }
}

TEST(Container, ResealedFlipsInSplitZeroAreTypedDecodeErrors) {
    // A single-bit flip in split 0's units, resealed so the container's
    // checksum holds, parses fine. The decode must then fail its end-state
    // check (every unit consumed, every used lane back at L) on every
    // backend, instead of returning wrong bytes.
    const auto text = workload::gen_text(64 * 1024, 5);
    auto m = test::model_for<u8>(text, 11, 256);
    const auto enc =
        recoil_encode<Rans32, 32>(std::span<const u8>(text), m, 16);
    const u64 split0_units = enc.metadata.splits.offset[0] + 1;
    const std::vector<simd::Backend> backends = granted_backends();
    for (u64 i = 0; i < 18; ++i) {
        auto bad = enc;
        const u64 pos = (i * split0_units) / 18;
        bad.bitstream.units[pos] ^= static_cast<u16>(1u << (i % 16));
        const auto f = format::load_recoil_file(
            format::save_recoil_file(format::make_recoil_file(bad, m, 1)));
        for (const simd::Backend b : backends) {
            const auto decode = [&] { return format::decode_file(f, nullptr, b); };
            EXPECT_THROW(decode(), Error)
                << "unit " << pos << " on " << simd::backend_name(b);
        }
    }
}

TEST(Container, TruncationDetected) {
    auto f = make_file(50000, 8);
    auto bytes = format::save_recoil_file(f);
    for (std::size_t keep : {std::size_t{0}, std::size_t{10}, bytes.size() / 2,
                             bytes.size() - 1}) {
        std::vector<u8> t(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(format::load_recoil_file(t), Error) << keep;
    }
}

/// `w` without the pad marker before its trailing payload of `units` u16
/// units: the layout of a version 1 container or an RCS1 stream.
std::vector<u8> without_unit_pad(std::vector<u8> w, u64 units) {
    const auto at = static_cast<std::ptrdiff_t>(w.size() - 8 - 2 * units);
    const std::ptrdiff_t pad = w[at - 2] == 1 ? 2 : 1;  // the marker {1, 0} or {0}
    w.erase(w.begin() + at - pad, w.begin() + at);
    return w;
}

TEST(Container, PrePadFormsAreRejected) {
    // Version 1 containers and RCS1 streams had no pad marker before the
    // unit payload. Nothing writes either form, and no parser reads it.
    const auto f = make_file(50000, 8);
    auto v1 = without_unit_pad(format::save_recoil_file(f), f.units.size());
    v1[4] = 1;  // the version byte follows the magic
    const auto sealed =
        std::make_shared<const std::vector<u8>>(test::reseal(std::move(v1)));
    EXPECT_EQ(test::error_of([&] { (void)format::load_recoil_file(*sealed); }),
              "container: unsupported version");
    EXPECT_EQ(test::error_of([&] { (void)format::load_recoil_file_view(*sealed, sealed); }),
              "container: unsupported version");

    stream::ChunkedEncoder chunker({11, 8});
    chunker.add_chunk(test::geometric_symbols<u8>(20000, 0.6, 256, 73));
    const stream::ChunkedStream cs = chunker.finish();
    auto rcs1 = without_unit_pad(cs.serialize(), cs.chunks[0].units.size());
    rcs1[3] = '1';  // RCS2 -> RCS1
    rcs1 = test::reseal(std::move(rcs1));
    EXPECT_EQ(test::error_of([&] { (void)stream::ChunkedStream::parse(rcs1); }),
              "chunked: bad magic");
}

TEST(Container, ChecksumIsFnv1a) {
    std::vector<u8> empty;
    EXPECT_EQ(format::fnv1a(empty), 0xcbf29ce484222325ull);
    std::vector<u8> a{'a'};
    EXPECT_EQ(format::fnv1a(a), 0xaf63dc4c8601ec8cull);
}

// The bit-sliced FNV-1a path (whole 512-byte blocks) against the serial
// loop. On a CPU without the path both sides are the serial loop, so these
// cases skip and name the missing bit instead of passing.
std::string no_fnv_fast_path() {
    return std::string("no bit-sliced FNV-1a on this CPU: ") +
           cpu_features().avx512_missing + " missing";
}

enum class Fill { random, zeros, ones, alternating };

/// `n` bytes of `fill` starting `offset` bytes into a fresh buffer, so
/// every alignment of the block loads is reached.
struct FnvInput {
    std::vector<u8> buf;
    std::span<const u8> bytes;
    FnvInput(std::size_t n, std::size_t offset, Fill fill, Xoshiro256& rng)
        : buf(n + offset) {
        for (std::size_t i = offset; i < buf.size(); ++i) {
            switch (fill) {
                case Fill::random: buf[i] = static_cast<u8>(rng()); break;
                case Fill::zeros: buf[i] = 0; break;
                case Fill::ones: buf[i] = 0xff; break;
                case Fill::alternating: buf[i] = i % 2 == 0 ? 0 : 0xff; break;
            }
        }
        bytes = std::span<const u8>(buf).subspan(offset);
    }
};

/// fnv1a and fnv1a2 from random states equal the serial reference.
void expect_fnv_matches_serial(std::span<const u8> bytes, Xoshiro256& rng) {
    const u64 a = rng();
    const u64 b = rng();
    const u64 ref_a = format::fnv1a_serial(bytes, a);
    const u64 ref_b = format::fnv1a_serial(bytes, b);
    EXPECT_EQ(format::fnv1a(bytes, a), ref_a) << bytes.size() << " bytes";
    u64 x = a;
    u64 y = b;
    format::fnv1a2(bytes, x, y);
    EXPECT_EQ(x, ref_a) << bytes.size() << " bytes";
    EXPECT_EQ(y, ref_b) << bytes.size() << " bytes";
}

constexpr Fill kFills[] = {Fill::random, Fill::zeros, Fill::ones,
                           Fill::alternating};

TEST(Container, Fnv1aFastPathMatchesSerialAtEveryLength) {
    if (!cpu_features().avx512) GTEST_SKIP() << no_fnv_fast_path();
    Xoshiro256 rng(0xf1a);
    // Every length to 10,000: one fill and start offset each, in turn.
    for (std::size_t n = 0; n <= 10000; ++n) {
        const FnvInput in(n, n % 64, kFills[n % 4], rng);
        expect_fnv_matches_serial(in.bytes, rng);
    }
    // Every start offset with every fill around the block edges.
    for (std::size_t offset = 0; offset < 64; ++offset)
        for (const Fill fill : kFills)
            for (const std::size_t n :
                 {511, 512, 513, 1023, 1024, 1025, 4096 + 37}) {
                const FnvInput in(n, offset, fill, rng);
                expect_fnv_matches_serial(in.bytes, rng);
            }
    // Multi-block spans: 1-4 MiB, odd tails, every fill.
    const std::size_t mib = std::size_t{1} << 20;
    const std::size_t big[] = {mib, mib + 1, 2 * mib + 511, 3 * mib + 513,
                               4 * mib};
    for (std::size_t i = 0; i < std::size(big); ++i) {
        const FnvInput in(big[i], rng.below(64), kFills[i % 4], rng);
        expect_fnv_matches_serial(in.bytes, rng);
    }
}

TEST(Container, Fnv1aFastPathIsIncremental) {
    if (!cpu_features().avx512) GTEST_SKIP() << no_fnv_fast_path();
    Xoshiro256 rng(0x1ace);
    const FnvInput in(std::size_t{1} << 16, 3, Fill::random, rng);
    const u64 a0 = rng();
    const u64 b0 = rng();
    const u64 ref_a = format::fnv1a_serial(in.bytes, a0);
    const u64 ref_b = format::fnv1a_serial(in.bytes, b0);
    // Pieces cut at 511/512/513 and at random points: each piece's blocks
    // start wherever the previous piece stopped.
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < in.bytes.size();) {
        const std::size_t step =
            cuts.size() % 4 == 3 ? rng.below(3000) : 511 + cuts.size() % 3;
        at = std::min(in.bytes.size(), at + step);
        cuts.push_back(at);
    }
    u64 a = a0;
    u64 x = a0;
    u64 y = b0;
    std::size_t from = 0;
    for (const std::size_t to : cuts) {
        const auto piece = in.bytes.subspan(from, to - from);
        a = format::fnv1a(piece, a);
        format::fnv1a2(piece, x, y);
        from = to;
    }
    EXPECT_EQ(a, ref_a);
    EXPECT_EQ(x, ref_a);
    EXPECT_EQ(y, ref_b);
}

TEST(Container, FlipsAtBlockEdgesAndInTheTailFailTheLoad) {
    const auto bytes = format::save_recoil_file(make_file(300000, 8));
    ASSERT_GE(bytes.size(), std::size_t{64} << 10);
    std::vector<std::size_t> at;
    for (std::size_t edge = 512; edge < bytes.size(); edge += 512)
        for (const std::size_t pos : {edge - 1, edge, edge + 1})
            if (pos < bytes.size()) at.push_back(pos);
    // The serial tail after the last whole block of the checksummed bytes.
    const std::size_t covered = bytes.size() - 8;
    for (std::size_t pos = covered - covered % 512; pos < bytes.size(); ++pos)
        at.push_back(pos);
    Xoshiro256 rng(0xed9e);
    for (const std::size_t pos : at) {
        auto bad = bytes;
        bad[pos] ^= static_cast<u8>(1u << rng.below(8));
        EXPECT_THROW(format::load_recoil_file(bad), Error) << "byte " << pos;
    }
}

// The FNV-1a memo (FnvMemo): folding a payload through it equals the serial
// hash from every low byte, cold (the fold it learns from) and warm (the
// O(1) recall), and it travels with the payload's copies and full-range
// views only.
TEST(Container, FnvMemoFoldEqualsTheSerialHash) {
    Xoshiro256 rng(0x3e30);
    const std::size_t sizes[] = {0,    1,    511,           512,
                                 513,  4095, (64 << 10) + 3, (1 << 20) + 7};
    for (const std::size_t n : sizes) {
        std::vector<u8> bytes(n);
        for (u8& b : bytes) b = static_cast<u8>(rng());
        const format::ByteBuffer payload(bytes);
        ASSERT_NE(payload.memo(), nullptr);
        for (unsigned low = 0; low < 256; ++low) {
            const u64 cold = (rng() & ~u64{0xff}) | low;
            const u64 warm = (rng() & ~u64{0xff}) | low;
            EXPECT_FALSE(payload.memo()->recall(cold).has_value());
            EXPECT_EQ(payload.memo()->fold(payload, cold),
                      format::fnv1a_serial(payload, cold))
                << n << " bytes, low byte " << low;
            ASSERT_TRUE(payload.memo()->recall(warm).has_value());
            EXPECT_EQ(payload.memo()->fold(payload, warm),
                      format::fnv1a_serial(payload, warm))
                << n << " bytes, low byte " << low;
        }
    }
}

TEST(Container, FnvMemoTravelsWithCopiesAndWholeViewsOnly) {
    Xoshiro256 rng(0x3e31);
    std::vector<u16> units(40000);
    for (u16& u : units) u = static_cast<u16>(rng());
    const format::UnitBuffer payload(units);
    const auto& memo = payload.memo();
    ASSERT_NE(memo, nullptr);

    // Copies and full-range views share the memo.
    const format::UnitBuffer copy = payload;
    EXPECT_EQ(copy.memo(), memo);
    EXPECT_EQ(payload.slice(0, payload.size()).memo(), memo);
    const format::ByteBuffer wire = payload.as_bytes();
    EXPECT_EQ(wire.memo(), memo);
    EXPECT_TRUE(wire.borrowed());
    const u64 state = rng();
    EXPECT_EQ(wire.memo()->fold(wire, state),
              format::fnv1a_serial(wire, state));
    EXPECT_TRUE(copy.memo()->recall(state ^ 0xff00).has_value());

    // A part of the payload, and a structural section, carry none: a sink
    // folds them like fnv1a.
    const format::ByteBuffer part =
        payload.slice(1, payload.size() - 2).as_bytes();
    EXPECT_EQ(part.memo(), nullptr);
    EXPECT_EQ(payload.slice(1, 5).memo(), nullptr);
    EXPECT_EQ(format::ByteBuffer::section({1, 2, 3}).memo(), nullptr);
    format::VectorSink sink;
    sink.write(part);
    sink.seal();
    EXPECT_EQ(format::stored_checksum(sink.out),
              format::fnv1a_serial(part, format::kFnvInit));
}

TEST(Container, AMemoSealsTheBytesItFirstHashed) {
    // A payload that changes after its first fold (a mapped master that
    // rots) keeps the checksum of its first bytes: the wire fails the
    // client's verify instead of carrying the new bytes under a fresh
    // checksum.
    auto f = make_file(50000, 8);
    auto storage = std::make_shared<std::vector<u16>>(f.units.begin(),
                                                      f.units.end());
    f.units = format::UnitBuffer::view(*storage, storage);
    const auto good = format::save_recoil_file(f);
    EXPECT_NO_THROW(format::load_recoil_file(good));
    (*storage)[storage->size() / 2] ^= 0x10;
    EXPECT_THROW(format::load_recoil_file(format::save_recoil_file(f)), Error);
}

/// bench_kernels' kind of input at a test's size: text, 11-bit model,
/// encoded at up to 2,176 splits.
format::RecoilFile golden_text_file() {
    const auto text = workload::gen_text(600000, 11);
    const auto m = test::model_for<u8>(text, 11, 256);
    const auto enc =
        recoil_encode<Rans32, 32>(std::span<const u8>(text), m, 2176);
    return format::make_recoil_file(enc, m, 1);
}

/// Two models over 16-bit symbols, switched every 7 symbols, with the
/// symbols they code.
struct IndexedU16 {
    std::vector<u16> syms;
    format::RecoilFile file;
};

IndexedU16 indexed_u16(std::size_t n, u32 max_splits) {
    const auto syms = test::geometric_symbols<u16>(n, 0.97, 1024, 16);
    std::vector<u8> ids(syms.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<u8>((i / 7) % 2);
    std::vector<u64> c0(1024, 1), c1(1024, 1);
    for (std::size_t i = 0; i < syms.size(); ++i)
        (ids[i] == 0 ? c0 : c1)[syms[i]] += 1 + ids[i];
    std::vector<StaticModel> models{StaticModel(c0, 14), StaticModel(c1, 14)};
    format::RecoilFile f;
    f.sym_width = 2;
    f.prob_bits = 14;
    format::RecoilFile::IndexedPayload p;
    for (const StaticModel& m : models) {
        std::vector<u32> freq(m.alphabet());
        for (u32 s = 0; s < m.alphabet(); ++s) freq[s] = m.freq(s);
        p.freqs.push_back(std::move(freq));
    }
    p.ids = ids;
    IndexedModelSet set(std::move(models), ids);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(syms), set, max_splits);
    f.metadata = std::move(enc.metadata);
    f.units = std::move(enc.bitstream.units);
    f.model = std::move(p);
    return {syms, std::move(f)};
}

format::RecoilFile golden_indexed_u16_file() { return indexed_u16(300000, 2176).file; }

/// Four text chunks of 150,000 bytes, up to 1,024 splits each.
stream::ChunkedStream golden_chunked() {
    const auto text = workload::gen_text(600000, 12);
    stream::ChunkedEncoder enc({11, 1024});
    for (std::size_t off = 0; off < text.size(); off += 150000)
        enc.add_chunk(std::span<const u8>(text).subspan(off, 150000));
    return enc.finish();
}

/// Size and FNV-1a of a wire, recorded from the serializer before the memo.
struct GoldenWire {
    u32 cls;
    std::size_t size;
    u64 digest;
};

void expect_golden(const std::vector<u8>& wire, const GoldenWire& g,
                   const char* what, const char* memo) {
    EXPECT_EQ(wire.size(), g.size) << what << " class " << g.cls << ", " << memo;
    EXPECT_EQ(format::fnv1a_serial(wire, format::kFnvInit), g.digest)
        << what << " class " << g.cls << ", " << memo;
}

/// Size and FNV-1a of the RCR2 wire for symbols [lo, hi).
struct GoldenRange {
    u64 lo, hi;
    std::size_t size;
    u64 digest;
};

/// Check `asset`'s range wires against `golden`: the first range inside
/// split 0, the second across a mid-stream split boundary, the third
/// reaching the end.
template <typename Asset>
void expect_golden_ranges(const Asset& asset, std::span<const GoldenRange, 3> golden,
                          const char* what) {
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const GoldenRange& g = golden[i];
        format::VectorSink sink;
        serve::range_wire_into(asset, g.lo, g.hi, sink);
        const serve::RangeWireInfo info = serve::inspect_range_wire(sink.out);
        if (i == 0) EXPECT_EQ(info.splits_served, 1u) << what;
        if (i == 1) EXPECT_GE(info.splits_served, 2u) << what;
        if (i == 2) EXPECT_TRUE(info.segments.back().includes_final) << what;
        EXPECT_EQ(sink.out.size(), g.size) << what << " [" << g.lo << ", " << g.hi << ")";
        EXPECT_EQ(format::fnv1a_serial(sink.out, format::kFnvInit), g.digest)
            << what << " [" << g.lo << ", " << g.hi << ")";
    }
}

TEST(Container, WiresMatchTheGoldenBytesWithTheMemoColdAndWarm) {
    const GoldenWire text[] = {{1, 316310, 14041638572878020346ull},
                               {4, 316544, 12726587831415258615ull},
                               {16, 317478, 15495339199960873429ull},
                               {2176, 488056, 1121593194908430516ull}};
    const GoldenWire indexed[] = {{1, 561252, 16221014175750321225ull},
                                  {4, 561474, 17406335222387321771ull},
                                  {16, 562364, 11791822323678086874ull},
                                  {2176, 725466, 9545991381336729811ull}};
    const GoldenWire chunked[] = {{1, 319782, 4258982311212589518ull},
                                  {16, 320698, 4725460018370241970ull},
                                  {2176, 488970, 6126537713971966398ull}};
    const struct {
        const char* name;
        format::RecoilFile file;
        std::span<const GoldenWire> golden;
    } files[] = {{"text", golden_text_file(), text},
                 {"indexed u16", golden_indexed_u16_file(), indexed}};
    for (const auto& [name, file, golden] : files) {
        ASSERT_EQ(file.metadata.num_splits(), 2176u) << name;
        for (const GoldenWire& g : golden) {
            const RecoilMetadata meta = combine_splits(file.metadata, g.cls);
            expect_golden(format::save_recoil_file(file, meta), g, name, "cold");
            expect_golden(format::save_recoil_file(file, meta), g, name, "warm");
        }
    }
    const stream::ChunkedStream stream = golden_chunked();
    for (const GoldenWire& g : chunked) {
        const stream::ChunkedStream combined = stream.combined(g.cls);
        expect_golden(combined.serialize(), g, "chunked", "cold");
        expect_golden(combined.serialize(), g, "chunked", "warm");
    }

    // RCR2 range wires cut from the same masters. The chunked stream's
    // middle range crosses the edge between its second and third chunks.
    const GoldenRange text_ranges[] = {{10, 60, 1541, 17224095809923788725ull},
                                       {299800, 300200, 2162, 12098594866598619689ull},
                                       {599500, 600000, 1947, 11442388736364565922ull}};
    const GoldenRange indexed_ranges[] = {{10, 60, 8830, 16691996656469187081ull},
                                          {149800, 150200, 10056, 17790912856066401571ull},
                                          {299500, 300000, 9732, 13924481207295042962ull}};
    const GoldenRange chunked_ranges[] = {{10, 30, 1414, 9417136544434911038ull},
                                          {299800, 300200, 3095, 15796458906861999228ull},
                                          {599500, 600000, 1830, 8337163141584550042ull}};
    expect_golden_ranges(files[0].file, text_ranges, "text range");
    expect_golden_ranges(files[1].file, indexed_ranges, "indexed u16 range");
    expect_golden_ranges(stream, chunked_ranges, "chunked range");
}


TEST(Container, DecodeFileDecodesEveryShape) {
    // One call for every payload shape: static u8 at n = 11 (the packed
    // table), static u8 at n = 16 (the wide tables) and a two-model indexed
    // u16 file (two little-endian bytes per symbol), each served at one
    // split, 16 and all it has, on every backend, with and without a pool.
    const auto text = workload::gen_text(200000, 21);
    struct Shape {
        const char* name;
        format::RecoilFile file;
        std::vector<u8> bytes;
    };
    std::vector<Shape> shapes;
    for (const u32 n : {11u, 16u}) {
        const auto m = test::model_for<u8>(text, n, 256);
        const auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(text), m, 256);
        shapes.push_back({n == 11 ? "static n=11" : "static n=16",
                          format::make_recoil_file(enc, m, 1), text});
        const auto& pdf = std::get<format::RecoilFile::StaticPayload>(
                              shapes.back().file.model).freq;
        EXPECT_EQ(DecodeModel({&pdf, 1}, n).tables().packed != nullptr, n == 11);
    }
    IndexedU16 indexed = indexed_u16(100000, 256);
    shapes.push_back({"indexed u16", std::move(indexed.file),
                      format::wire::le_bytes(indexed.syms)});

    ThreadPool pool(3);
    for (const Shape& shape : shapes) {
        const u32 all = shape.file.metadata.num_splits();
        ASSERT_GT(all, 16u) << shape.name;
        for (const u32 cls : {1u, 16u, all}) {
            const auto f = format::load_recoil_file(format::save_recoil_file(
                shape.file, combine_splits(shape.file.metadata, cls)));
            for (const simd::Backend b : granted_backends())
                for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool})
                    EXPECT_EQ(format::decode_file(f, p, b), shape.bytes)
                        << shape.name << ", class " << cls << ", "
                        << simd::backend_name(b) << (p ? ", 3 workers" : ", no pool");
        }
    }
}

TEST(Container, HostileIdStreamsAreTypedErrors) {
    // An attacker can recompute any checksum, so an indexed container's id
    // stream must be checked against the symbols and the model family it
    // selects: a short stream, or an id naming no model, is a typed error
    // and never a read past the ids or the tables.
    const auto ds = workload::gen_latents("t", 60000, 2.0, 63);
    const format::RecoilFile f = latent_file(ds, 16);
    const auto& payload = std::get<format::RecoilFile::IndexedPayload>(f.model);
    const auto models = static_cast<u8>(payload.freqs.size());

    // 16 ids for 60,000 symbols, sealed: neither parse accepts it.
    format::RecoilFile short_ids = f;
    std::get<format::RecoilFile::IndexedPayload>(short_ids.model).ids =
        std::vector<u8>(ds.ids.begin(), ds.ids.begin() + 16);
    const auto sealed = std::make_shared<const std::vector<u8>>(
        format::save_recoil_file(short_ids));
    EXPECT_THROW(format::load_recoil_file(*sealed), Error);
    EXPECT_THROW(format::load_recoil_file_view(*sealed, sealed), Error);
    EXPECT_THROW(format::decode_file(short_ids), Error);

    // An id equal to the model count parses (the container does not know
    // the range) and fails its decode.
    format::RecoilFile bad_id = f;
    std::vector<u8> ids(ds.ids.begin(), ds.ids.end());
    ids[ids.size() / 2] = models;
    std::get<format::RecoilFile::IndexedPayload>(bad_id.model).ids = ids;
    const auto parsed = format::load_recoil_file(format::save_recoil_file(bad_id));
    EXPECT_THROW(format::decode_file(parsed), Error);

    // The same id in a range wire's id slice, resealed.
    format::VectorSink sink;
    serve::range_wire_into(f, 20000, 30000, sink);
    std::vector<u8> wire = std::move(sink.out);
    ASSERT_NO_THROW(serve::decode_range_wire(wire));
    // RCR2: a 28-byte header; the segment's 32-byte head, the model count,
    // each freq table (count + entries), then ids_lo and the id count.
    std::size_t at = 28 + 32 + 4;
    for (const auto& pdf : payload.freqs) at += 4 + 4 * pdf.size();
    u64 ids_lo = 0;
    for (int i = 0; i < 8; ++i) ids_lo |= u64{wire[at + i]} << (8 * i);
    ASSERT_EQ(ids_lo, serve::inspect_range_wire(wire).segments.at(0).cover_lo);
    wire[at + 16] = models;  // the slice's first id
    EXPECT_THROW(serve::decode_range_wire(test::reseal(std::move(wire))), Error);
}

TEST(Container, AnAlphabetWiderThanTheSymbolsIsATypedError) {
    // 5,000 symbols over a 300-symbol pdf, sealed with one byte per symbol:
    // every symbol past 255 would decode to its low byte. Each parser takes
    // at most the alphabet the wire's width carries (256 at sym_width 1,
    // and for every chunk of a chunked stream), and make_recoil_file will
    // not write such a container.
    auto refuses = [](auto&& parse) {
        return test::error_of(parse).find("bad alphabet size") != std::string::npos;
    };
    const auto syms = test::geometric_symbols<u16>(5000, 0.99, 300, 71);
    ASSERT_GT(*std::max_element(syms.begin(), syms.end()), 255);
    const StaticModel m = test::model_for<u16>(syms, 12, 300);
    const auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(syms), m, 4);
    EXPECT_THROW(format::make_recoil_file(enc, m, 1), Error);
    format::RecoilFile f = format::make_recoil_file(enc, m, 2);
    ASSERT_EQ(format::decode_file(format::load_recoil_file(format::save_recoil_file(f))),
              format::wire::le_bytes(std::span<const u16>(syms)));

    f.sym_width = 1;
    const auto sealed =
        std::make_shared<const std::vector<u8>>(format::save_recoil_file(f));
    EXPECT_TRUE(refuses([&] { (void)format::load_recoil_file(*sealed); }));
    EXPECT_TRUE(refuses([&] { (void)format::load_recoil_file_view(*sealed, sealed); }));
    format::VectorSink sink;
    serve::range_wire_into(f, 1000, 4000, sink);
    EXPECT_TRUE(refuses([&] { (void)serve::decode_range_wire(sink.out); }));

    // A chunk's pdf of 300 symbols.
    stream::ChunkedEncoder chunker({12, 8000});
    chunker.add_chunk(test::geometric_symbols<u8>(20000, 0.6, 256, 72));
    stream::ChunkedStream cs = chunker.finish();
    ASSERT_NO_THROW((void)stream::ChunkedStream::parse(cs.serialize()));
    cs.chunks[0].freq.clear();
    for (u32 s = 0; s < m.alphabet(); ++s) cs.chunks[0].freq.push_back(m.freq(s));
    EXPECT_TRUE(refuses([&] { (void)stream::ChunkedStream::parse(cs.serialize()); }));
}

}  // namespace
}  // namespace recoil
