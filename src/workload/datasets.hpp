#pragma once
// Dataset generators reproducing the paper's evaluation inputs (Table 4).
// Everything is synthetic and seed-deterministic: the paper's corpora are
// not redistributable, so each stands in with matched statistics
// (enwik/dickens/webster -> Markov text with matched order-0 entropy; DIV2K
// latents -> Gaussian residuals with a hyperprior-like scale field).

#include <functional>
#include <string>
#include <vector>

#include "rans/indexed_model.hpp"
#include "util/ints.hpp"

namespace recoil::workload {

/// rand_<lambda>: exponential bytes. min(255, floor(Exp(rate = lambda/200)))
/// reproduces the paper's compressibility ladder (77% .. 9% of raw at n=16).
std::vector<u8> gen_exponential(u64 size, double lambda, u64 seed);

/// English-like text from an order-2 Markov chain (order-0 entropy
/// ~4.5-4.8 bits/byte, matching the paper's text-corpus ratios).
std::vector<u8> gen_text(u64 size, u64 seed);

/// Learned-image-codec latent stand-in: 16-bit symbols (residual + 2048),
/// each modeled by a zero-mean Gaussian whose scale comes from a spatially
/// smooth hyperprior-like field, quantized to `num_models` bins.
struct LatentDataset {
    std::string name;
    std::vector<u16> symbols;  ///< residual + kLatentOffset, in [0, alphabet)
    std::vector<u8> ids;       ///< per-symbol scale-bin model id
    std::vector<double> bin_sigma;
    u32 alphabet = 0;

    /// Gaussian CDF table family for the ids (the decoder's adaptive model).
    IndexedModelSet build_models(u32 prob_bits) const;
};

inline constexpr u32 kLatentAlphabet = 4096;
inline constexpr i32 kLatentOffset = 2048;

LatentDataset gen_latents(const std::string& name, u64 num_symbols,
                          double sigma_median, u64 seed, u32 num_models = 64);

/// A named byte dataset with a lazily-invoked generator.
struct ByteDatasetSpec {
    std::string name;
    u64 size;
    std::function<std::vector<u8>(u64 size)> generate;
};

/// The nine byte datasets of Table 4. `scale` multiplies the paper's sizes
/// (1.0 = 10 MB rand files, 100 MB enwik8, 1 GB enwik9).
std::vector<ByteDatasetSpec> paper_byte_datasets(double scale);

/// The three div2k latent stand-ins of Table 4 (sigma chosen to land in the
/// paper's 19-41% compression band).
std::vector<LatentDataset> paper_latent_datasets(double scale);

/// Benchmark dataset scale: 1.0 (paper sizes) when RECOIL_FULL=1, the value
/// of RECOIL_SCALE if set, else 0.1.
double bench_scale();

/// Seed-deterministic Zipf(s) key plan over [1, keys]: the canonical skewed
/// request trace of the serve cache, replayed by test_cache_policy's
/// exact-LRU hit-rate regression (CDF inversion over a seeded xoshiro
/// stream).
std::vector<u32> zipf_plan(u32 keys, std::size_t requests, double s,
                           u64 seed);

}  // namespace recoil::workload
