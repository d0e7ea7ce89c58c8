// Container format tests: round-trip, the §3.3 serving path, and failure
// injection (bit flips anywhere must be detected by the checksum).

#include <gtest/gtest.h>

#include <cmath>

#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "format/container.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

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

TEST(Container, ChecksumIsFnv1a) {
    std::vector<u8> empty;
    EXPECT_EQ(format::fnv1a(empty), 0xcbf29ce484222325ull);
    std::vector<u8> a{'a'};
    EXPECT_EQ(format::fnv1a(a), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace recoil
