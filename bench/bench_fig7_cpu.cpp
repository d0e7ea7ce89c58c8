// Figure 7, measured on this host: decoding throughput of Single-Thread,
// Conventional and Recoil on the AVX512 and AVX2 implementations, n=11 and
// n=16. Single-Thread decodes variation (a); Conventional decodes (d)
// (Small, 16 partitions); Recoil decodes (e) (Small, combined from the Large
// metadata) — exactly the bitstreams a 16-way-parallel CPU client would
// receive. Paper hardware: Xeon W-3245 (16C); this host's core count is
// reported below.
//
// The Large panel decodes the bitstreams the paper's GPU panel decoded on an
// RTX 2080 Ti, on this host's best backend and the same pool: multians its
// own metadata-free tANS bitstream (f), Conventional variation (b) (2,176
// partitions) and Recoil variation (c) (2,176 splits). No GPU is modelled.
//
// Every column's last decode is compared with its source; a mismatch
// prints MISMATCH and the bench exits 1.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <type_traits>

#include "bench_util.hpp"
#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "rans/indexed_model.hpp"
#include "rans/symbol_stats.hpp"
#include "simd/dispatch.hpp"
#include "tans/multians.hpp"

using namespace recoil;

namespace {

struct Row {
    std::string name;
    u64 raw_bytes;
    double single, conv, recoil;
    /// Large panel, on the best backend only; multians < 0 is N/A.
    double multians = -1, large_conv = 0, large_recoil = 0;
    bool ok = true;
};

template <typename TSym, typename Model>
Row run_dataset(const std::string& name, std::span<const TSym> syms,
                const Model& model, u32 prob_bits, simd::Backend backend,
                ThreadPool& pool, bool large) {
    const int n = bench::runs();
    Row row{name, syms.size() * sizeof(TSym), 0, 0, 0};
    simd::SimdRangeFn<TSym> range{backend};
    const DecodeTables t = model.tables();
    std::vector<TSym> out(syms.size());  // decode work only, as in the paper

    // Time one column, then compare its last decode with the source once.
    // The buffer is cleared first, so a column cannot pass on the output the
    // previous column left there.
    auto measure = [&](const char* column, auto&& decode) {
        std::fill(out.begin(), out.end(), TSym{0});
        const double gbps = bench::measure_gbps(row.raw_bytes, n, decode);
        if (!std::equal(syms.begin(), syms.end(), out.begin())) {
            std::printf("MISMATCH: %s %s\n", name.c_str(), column);
            row.ok = false;
        }
        return gbps;
    };

    auto enc = recoil_encode<Rans32, 32>(syms, model, bench::kLargeSplits);
    auto small_meta = combine_splits(enc.metadata, bench::kSmallSplits);
    std::span<const u16> units(enc.bitstream.units);

    // Single-Thread: variation (a) = the same bitstream, no split metadata.
    RecoilMetadata serial_meta = small_meta;
    serial_meta.splits.clear();
    row.single = measure("Single", [&] {
        recoil_decode_into<Rans32, 32, TSym>(units, serial_meta, t,
                                             std::span<TSym>(out), nullptr, nullptr,
                                             range);
    });

    auto conv = conventional_encode<Rans32, 32>(syms, model, bench::kSmallSplits);
    row.conv = measure("Conventional", [&] {
        conventional_decode_into<Rans32, 32, TSym>(conv, t, std::span<TSym>(out),
                                                   &pool, range);
    });

    row.recoil = measure("Recoil", [&] {
        recoil_decode_into<Rans32, 32, TSym>(units, small_meta, t,
                                             std::span<TSym>(out), &pool, nullptr,
                                             range);
    });
    if (!large) return row;

    if constexpr (std::is_same_v<TSym, u8>) {
        const TansTable table(quantize_pdf(histogram(syms), prob_bits), prob_bits);
        const TansEncoded tans = tans_encode<u8>(syms, table);
        MultiansOptions opt;
        opt.words_per_segment = 2048;
        // n=16 does not self-synchronize; cap the fixpoint (the serial
        // fallback is the cost the paper reports as unusable throughput).
        opt.max_rounds = prob_bits >= 14 ? 4 : 48;
        row.multians = measure("multians", [&] {
            multians_decode_into<u8>(tans, table, std::span<u8>(out), opt, &pool,
                                     nullptr);
        });
    }

    auto large_conv = conventional_encode<Rans32, 32>(syms, model, bench::kLargeSplits);
    row.large_conv = measure("Large Conventional", [&] {
        conventional_decode_into<Rans32, 32, TSym>(large_conv, t, std::span<TSym>(out),
                                                   &pool, range);
    });

    row.large_recoil = measure("Large Recoil", [&] {
        recoil_decode_into<Rans32, 32, TSym>(units, enc.metadata, t,
                                             std::span<TSym>(out), &pool, nullptr,
                                             range);
    });
    return row;
}

/// One panel per backend and n; with `large`, the Large panel from the same
/// encodes follows it. Returns false on any mismatch.
bool run_panel(simd::Backend backend, u32 n, double scale, ThreadPool& pool, bool large) {
    backend = simd::clamp_backend(backend);
    std::vector<Row> rows;
    for (const auto& spec : workload::paper_byte_datasets(scale)) {
        auto data = spec.generate(spec.size);
        auto model = bench::model_for_bytes(data, n);
        rows.push_back(run_dataset<u8>(spec.name, std::span<const u8>(data), model, n,
                                       backend, pool, large));
    }
    if (n == 16) {
        for (const auto& ds : workload::paper_latent_datasets(scale)) {
            auto models = ds.build_models(n);
            rows.push_back(run_dataset<u16>(ds.name, std::span<const u16>(ds.symbols),
                                            models, n, backend, pool, large));
        }
    }

    std::printf("\n-- %s panel, n=%u --\n", simd::backend_name(backend), n);
    std::printf("%-10s %10s %14s %12s   (GB/s)\n", "dataset", "Single",
                "Conventional", "Recoil");
    for (const Row& r : rows)
        std::printf("%-10s %10.2f %14.2f %12.2f\n", r.name.c_str(), r.single, r.conv,
                    r.recoil);
    if (large) {
        std::printf("\n-- Large panel (%u splits), n=%u: %s on this host, "
                    "%u-thread pool --\n",
                    bench::kLargeSplits, n, simd::backend_name(backend), pool.size());
        std::printf("%-10s %10s %14s %12s   (GB/s)\n", "dataset", "multians",
                    "Conventional", "Recoil");
        for (const Row& r : rows) {
            char mult[16] = "N/A";
            if (r.multians >= 0) std::snprintf(mult, sizeof(mult), "%.2f", r.multians);
            std::printf("%-10s %10s %14.2f %12.2f\n", r.name.c_str(), mult, r.large_conv,
                        r.large_recoil);
        }
    }
    return std::all_of(rows.begin(), rows.end(), [](const Row& r) { return r.ok; });
}

}  // namespace

int main() {
    const double scale = workload::bench_scale();
    const unsigned cores = std::thread::hardware_concurrency();
    const unsigned threads = cores > 16 ? 16 : cores;  // paper: 16C machine
    ThreadPool pool(threads);
    std::printf("== Figure 7 (CPU): decode throughput, %u threads, scale %.3g ==\n",
                threads, scale);
    std::printf("(paper: Xeon W-3245 16C; AVX512 ~8-11 GB/s, AVX2 ~5-8 GB/s,\n"
                " Single-Thread ~0.6-0.9 GB/s; Recoil ~= Conventional everywhere.\n"
                " Its Large panel ran on an RTX 2080 Ti: Recoil ~= Conventional at\n"
                " 90+ GB/s, multians far behind and collapsing at n=16)\n");
    bool ok = true;
    // The AVX512 request clamps to the best backend this host grants.
    for (u32 n : {11u, 16u}) ok &= run_panel(simd::Backend::Avx512, n, scale, pool, true);
    for (u32 n : {11u, 16u}) ok &= run_panel(simd::Backend::Avx2, n, scale, pool, false);
    return ok ? 0 : 1;
}
