// Learned-image-codec pipeline (§5.1 div2k experiments): 16-bit latent
// residuals with per-symbol Gaussian models selected by a hyperprior-like
// scale field, encoded once at 2,176 splits and decoded on every core of
// this host with the best SIMD backend. Demonstrates why Recoil metadata
// records *symbol indices*: the adaptive model is keyed by position (§3.1
// advantage (3)).

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "simd/dispatch.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workload/datasets.hpp"

using namespace recoil;

int main() {
    // "Transform" a 4M-latent image (stand-in for mbt2018-mean output).
    auto image = workload::gen_latents("demo_image", 4'000'000, 2.2, 7);
    auto models = image.build_models(/*prob_bits=*/16);
    std::printf("latents: %zu x 16-bit symbols, %u Gaussian scale bins\n",
                image.symbols.size(), models.model_count());

    auto encoded = recoil_encode<Rans32, 32>(std::span<const u16>(image.symbols),
                                             models, /*max_splits=*/2176);
    const double raw = static_cast<double>(image.symbols.size()) * 2;
    const double compressed = static_cast<double>(encoded.bitstream.byte_size());
    std::printf("compressed %.2f MB -> %.2f MB (%.1f%%), %u split points\n",
                raw / 1e6, compressed / 1e6, 100.0 * compressed / raw,
                encoded.metadata.num_splits() - 1);

    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(threads);
    simd::SimdRangeFn<u16> range;  // auto-picks AVX512 / AVX2 / scalar
    RecoilDecodeStats stats;
    Stopwatch sw;
    auto decoded = recoil_decode<Rans32, 32, u16>(
        std::span<const u16>(encoded.bitstream.units), encoded.metadata,
        models.tables(), &pool, &stats, range);
    const double secs = sw.seconds();

    std::printf("decode: %s backend, %u threads, %.2f GB/s\n",
                simd::backend_name(range.backend), threads, gbps(raw, secs));
    std::printf("sync overhead: %llu discarded + %llu cross-boundary symbols "
                "(%.3f%% of stream)\n",
                static_cast<unsigned long long>(stats.sync_symbols),
                static_cast<unsigned long long>(stats.cross_symbols),
                100.0 * static_cast<double>(stats.sync_symbols + stats.cross_symbols) /
                    static_cast<double>(image.symbols.size()));

    const bool ok = decoded == image.symbols;
    std::printf("round trip: %s\n", ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
}
