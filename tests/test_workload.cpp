// Tests for the synthetic dataset generators: determinism, calibrated
// compressibility (the Table 4 ladder), and the latent/adaptive pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

using namespace workload;

double order0_bits_per_byte(std::span<const u8> data) {
    auto h = histogram(data);
    const double n = static_cast<double>(data.size());
    double bits = 0;
    for (u64 c : h) {
        if (c == 0) continue;
        const double p = static_cast<double>(c) / n;
        bits -= p * std::log2(p);
    }
    return bits;
}

TEST(Workload, ExponentialDeterministic) {
    auto a = gen_exponential(10000, 100, 7);
    auto b = gen_exponential(10000, 100, 7);
    auto c = gen_exponential(10000, 100, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Workload, ExponentialCompressibilityLadder) {
    // Larger lambda => more skew => fewer bits/byte (Table 4's ladder).
    double prev = 9.0;
    for (double lambda : {10.0, 50.0, 100.0, 200.0, 500.0}) {
        auto data = gen_exponential(400000, lambda, 11);
        const double bpb = order0_bits_per_byte(data);
        EXPECT_LT(bpb, prev) << "lambda " << lambda;
        prev = bpb;
    }
    // End points bracket the paper's measured ratios (6.1 and 0.7 bpb).
    auto d10 = gen_exponential(400000, 10, 12);
    auto d500 = gen_exponential(400000, 500, 13);
    EXPECT_GT(order0_bits_per_byte(d10), 4.5);
    EXPECT_LT(order0_bits_per_byte(d500), 1.6);
}

TEST(Workload, TextEntropyInEnglishBand) {
    auto data = gen_text(500000, 3);
    const double bpb = order0_bits_per_byte(data);
    EXPECT_GT(bpb, 3.8);
    EXPECT_LT(bpb, 5.4);
    // Text should be ASCII-ish.
    for (std::size_t i = 0; i < 1000; ++i) {
        EXPECT_GE(data[i], 0x20);
        EXPECT_LT(data[i], 0x7f);
    }
}

TEST(Workload, TextDeterministicPerSeed) {
    EXPECT_EQ(gen_text(5000, 1), gen_text(5000, 1));
    EXPECT_NE(gen_text(5000, 1), gen_text(5000, 2));
}

TEST(Workload, PaperByteDatasetRegistry) {
    auto specs = paper_byte_datasets(0.01);
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs[0].name, "rand_10");
    EXPECT_EQ(specs[8].name, "enwik9");
    // Sizes follow the paper's proportions (with a floor for tiny scales).
    EXPECT_GE(specs[8].size, specs[7].size);
    auto data = specs[0].generate(specs[0].size);
    EXPECT_EQ(data.size(), specs[0].size);
}

TEST(Workload, LatentsWellFormed) {
    auto ds = gen_latents("t", 50000, 2.0, 9);
    EXPECT_EQ(ds.symbols.size(), 50000u);
    EXPECT_EQ(ds.ids.size(), 50000u);
    for (u16 s : ds.symbols) EXPECT_LT(s, kLatentAlphabet);
    for (u8 id : ds.ids) EXPECT_LT(id, 64);
}

TEST(Workload, LatentsIdsSpatiallyCoherent) {
    auto ds = gen_latents("t", 100000, 2.0, 10);
    u64 changes = 0;
    for (std::size_t i = 1; i < ds.ids.size(); ++i) changes += ds.ids[i] != ds.ids[i - 1];
    // A hyperprior-like field changes bins rarely relative to i.i.d. ids.
    EXPECT_LT(changes, ds.ids.size() / 4);
}

TEST(Workload, LatentsModelsCompressNearConditionalEntropy) {
    auto ds = gen_latents("t", 200000, 2.0, 11);
    auto models = ds.build_models(16);
    // Every symbol is encodable, and the indexed model beats a single static
    // model on this data (the point of adaptive coding).
    double adaptive_bits = 0;
    for (std::size_t i = 0; i < ds.symbols.size(); ++i) {
        const auto& e = models.enc_fast(i, ds.symbols[i]);
        ASSERT_GT(e.freq, 0u);
        adaptive_bits += 16.0 - std::log2(static_cast<double>(e.freq));
    }
    auto h = histogram16(ds.symbols, kLatentAlphabet);
    for (auto& c : h) c += 1;  // smooth
    StaticModel single(h, 16);
    double static_bits = 0;
    for (std::size_t i = 0; i < ds.symbols.size(); ++i) {
        static_bits += 16.0 - std::log2(static_cast<double>(single.freq(ds.symbols[i])));
    }
    EXPECT_LT(adaptive_bits, static_bits);
    // Compression ratio lands in the paper's div2k band (19-41% of 16-bit raw).
    const double ratio = adaptive_bits / (16.0 * static_cast<double>(ds.symbols.size()));
    EXPECT_GT(ratio, 0.10);
    EXPECT_LT(ratio, 0.50);
}

TEST(Workload, PaperLatentRegistry) {
    auto sets = paper_latent_datasets(0.02);
    ASSERT_EQ(sets.size(), 3u);
    EXPECT_EQ(sets[0].name, "div2k801");
    // div2k805 is the most compressible (smallest sigma), 803 the least.
    EXPECT_LT(sets[2].bin_sigma[32], sets[1].bin_sigma[32]);
}

TEST(Workload, BenchScaleEnvOverride) {
    // Not set in the test environment: default applies.
    EXPECT_GT(bench_scale(), 0.0);
}

}  // namespace
}  // namespace recoil
