// Container format tests: round-trip, the §3.3 serving path, and failure
// injection (bit flips anywhere must be detected by the checksum).

#include <gtest/gtest.h>

#include <cmath>

#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "format/container.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"
#include "util/cpu.hpp"
#include "util/xoshiro.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

/// Every backend this build and CPU can run.
std::vector<simd::Backend> backends() {
    std::vector<simd::Backend> v{simd::Backend::Scalar};
    for (const simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::clamp_backend(b) == b) v.push_back(b);
    return v;
}

format::ConventionalFile conventional_file(std::span<const u8> syms, const StaticModel& m,
                                           u32 partitions) {
    format::ConventionalFile f;
    f.sym_width = 1;
    f.prob_bits = m.prob_bits();
    for (u32 s = 0; s < m.alphabet(); ++s) f.freq.push_back(m.freq(s));
    f.payload = conventional_encode<Rans32, 32>(syms, m, partitions);
    return f;
}

format::ConventionalFile reload(const format::ConventionalFile& f) {
    return format::load_conventional_file(format::save_conventional_file(f));
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
    auto model = f.build_static_model();
    auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(f.units),
                                             f.metadata, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, ServeCombinedShrinksAndDecodes) {
    auto syms = test::geometric_symbols<u8>(400000, 0.6, 256, 62);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 256);
    auto f = format::make_recoil_file(enc, m, 1);
    auto large = format::save_recoil_file(f);
    auto small = format::serve_combined(f, 8);
    EXPECT_LT(small.size(), large.size());
    auto g = format::load_recoil_file(small);
    EXPECT_LE(g.metadata.num_splits(), 8u);
    auto model = g.build_static_model();
    auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(g.units),
                                             g.metadata, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, IndexedModelRoundTrip) {
    auto ds = workload::gen_latents("t", 60000, 2.0, 63);
    auto models = ds.build_models(16);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), models, 16);

    format::RecoilFile f;
    f.sym_width = 2;
    f.prob_bits = 16;
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    // Serialize the generating pdfs (what a real hyperprior decoder would
    // reconstruct from side information).
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

    auto bytes = format::save_recoil_file(f);
    auto g = format::load_recoil_file(bytes);
    ASSERT_TRUE(g.is_indexed());
    auto set = g.build_indexed_model();
    auto dec = recoil_decode<Rans32, 32, u16>(std::span<const u16>(g.units),
                                              g.metadata, set.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), ds.symbols.begin()));
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
    const u64 split0_units = enc.metadata.splits[0].offset + 1;
    std::vector<simd::Backend> backends{simd::Backend::Scalar};
    for (const simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::clamp_backend(b) == b) backends.push_back(b);
    for (u64 i = 0; i < 18; ++i) {
        auto bad = enc;
        const u64 pos = (i * split0_units) / 18;
        bad.bitstream.units[pos] ^= static_cast<u16>(1u << (i % 16));
        const auto f = format::load_recoil_file(
            format::save_recoil_file(format::make_recoil_file(bad, m, 1)));
        const auto model = f.build_static_model();
        for (const simd::Backend b : backends) {
            const auto decode = [&] {
                return recoil_decode<Rans32, 32, u8>(
                    std::span<const u16>(f.units), f.metadata, model.tables(),
                    nullptr, nullptr, simd::SimdRangeFn<u8>{b});
            };
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

TEST(Container, ConventionalFileRoundTrip) {
    auto syms = test::geometric_symbols<u8>(120000, 0.6, 256, 70);
    auto m = test::model_for<u8>(syms, 11, 256);
    format::ConventionalFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    f.freq.resize(256);
    for (u32 s = 0; s < 256; ++s) f.freq[s] = m.freq(s);
    f.payload = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 24);

    auto bytes = format::save_conventional_file(f);
    auto g = format::load_conventional_file(bytes);
    EXPECT_EQ(g.payload.partitions.size(), f.payload.partitions.size());
    StaticModel model(std::span<const u32>(g.freq), g.prob_bits, 0);
    auto dec = conventional_decode<Rans32, 32, u8>(g.payload, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, ConventionalFileCorruptionDetected) {
    auto syms = test::geometric_symbols<u8>(40000, 0.5, 256, 71);
    auto m = test::model_for<u8>(syms, 11, 256);
    format::ConventionalFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    f.freq.resize(256);
    for (u32 s = 0; s < 256; ++s) f.freq[s] = m.freq(s);
    f.payload = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 8);
    auto bytes = format::save_conventional_file(f);
    Xoshiro256 rng(72);
    for (int iter = 0; iter < 20; ++iter) {
        auto bad = bytes;
        bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
        EXPECT_THROW(format::load_conventional_file(bad), Error);
    }
}

TEST(Container, ConventionalPartitionsThatWrapAreRejected) {
    // Partition counts are u64s on the wire. Counts that run past the
    // stream and wrap the running sums back to the right totals, or a
    // partition before the last that is not whole 32-symbol groups, must
    // fail the load: the decoder hands each partition its own unit slice
    // and maps its positions to lanes globally.
    const auto syms = test::geometric_symbols<u8>(64, 0.5, 256, 73);
    const auto f = conventional_file(syms, test::model_for<u8>(syms, 11, 256), 2);
    ASSERT_EQ(f.payload.partitions.size(), 2u);
    ASSERT_NO_THROW(reload(f));
    const u64 units = f.payload.units.size();

    auto wrap_symbols = [&](format::ConventionalFile& g) {
        auto& p = g.payload.partitions;
        p[0].sym_count = 0 - u64{32};
        p[1].sym_begin = p[0].sym_count;
        p[1].sym_count = 96;  // the sum wraps to 64
    };
    auto wrap_units = [&](format::ConventionalFile& g) {
        auto& p = g.payload.partitions;
        p[0].unit_count = 0 - u64{101};
        p[1].unit_begin = p[0].unit_count;
        p[1].unit_count = units + 101;  // the sum wraps to `units`
    };
    auto both = f, symbols_only = f, units_only = f, ragged = f;
    wrap_symbols(both);
    wrap_units(both);
    wrap_symbols(symbols_only);
    wrap_units(units_only);
    ragged.payload.partitions[0].sym_count = 31;
    ragged.payload.partitions[1].sym_begin = 31;
    ragged.payload.partitions[1].sym_count = 33;
    EXPECT_THROW(reload(both), Error);
    EXPECT_THROW(reload(symbols_only), Error);
    EXPECT_THROW(reload(units_only), Error);
    EXPECT_THROW(reload(ragged), Error);
}

TEST(Container, ConventionalFileWithoutUnitsRoundTrips) {
    // 40 copies of a frequent symbol in 2 partitions: no lane renormalizes,
    // so the stream has no units at all, and still saves, loads and decodes.
    const std::vector<u8> syms(40, 'a');
    std::vector<u64> counts(256, 1);
    counts['a'] = 1000;
    const StaticModel m(counts, 11);
    const auto f = conventional_file(syms, m, 2);
    ASSERT_EQ(f.payload.partitions.size(), 2u);
    ASSERT_TRUE(f.payload.units.empty());
    const auto g = reload(f);
    for (const simd::Backend b : backends()) {
        EXPECT_EQ((conventional_decode<Rans32, 32, u8>(g.payload, m.tables(), nullptr,
                                                       simd::SimdRangeFn<u8>{b})),
                  syms)
            << simd::backend_name(b);
    }
}

TEST(Container, ResealedFlipsInConventionalPartitionsAreTypedDecodeErrors) {
    // The conventional twin of ResealedFlipsInSplitZeroAreTypedDecodeErrors:
    // a single-bit flip in any partition's units, resealed, must fail that
    // partition's end-state check (every unit consumed, every used lane
    // back at L) on every backend, instead of returning wrong bytes.
    const auto text = workload::gen_text(64 * 1024, 5);
    const auto m = test::model_for<u8>(text, 11, 256);
    const auto f = conventional_file(text, m, 16);
    ASSERT_EQ(f.payload.partitions.size(), 16u);
    const u64 n = f.payload.units.size();
    for (u64 i = 0; i < 200; ++i) {
        auto bad = f;
        const u64 pos = (i * n) / 200;
        bad.payload.units[pos] ^= static_cast<u16>(1u << (i % 16));
        const auto g = reload(bad);
        for (const simd::Backend b : backends()) {
            const auto decode = [&] {
                return conventional_decode<Rans32, 32, u8>(g.payload, m.tables(), nullptr,
                                                           simd::SimdRangeFn<u8>{b});
            };
            EXPECT_THROW(decode(), Error) << "unit " << pos << " on " << simd::backend_name(b);
        }
    }
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
           cpu_features().avx512_fnv_missing + " missing";
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
    if (!cpu_features().avx512_fnv) GTEST_SKIP() << no_fnv_fast_path();
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
    if (!cpu_features().avx512_fnv) GTEST_SKIP() << no_fnv_fast_path();
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

}  // namespace
}  // namespace recoil
