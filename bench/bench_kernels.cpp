// Micro-benchmarks (google-benchmark): decode kernel backends, decode and
// tANS table construction, metadata bit I/O, the FNV-1a checksum,
// serializing a container per client class. Complements the table/figure
// harness with per-component numbers.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.hpp"
#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "core/split_planner.hpp"
#include "format/container.hpp"
#include "format/wire_io.hpp"
#include "rans/indexed_model.hpp"
#include "rans/interleaved.hpp"
#include "simd/dispatch.hpp"
#include "tans/tans_table.hpp"
#include "util/bitio.hpp"
#include "util/cpu.hpp"

using namespace recoil;

namespace {

struct KernelFixture {
    std::vector<u8> data;
    StaticModel model;
    InterleavedBitstream<Rans32, 32> bs;

    explicit KernelFixture(u32 prob_bits)
        : data(workload::gen_text(4 << 20, 9)),
          model(histogram(data), prob_bits),
          bs(interleaved_encode<Rans32, 32>(std::span<const u8>(data), model)) {}
};

KernelFixture& fixture11() {
    static KernelFixture f(11);
    return f;
}
KernelFixture& fixture16() {
    static KernelFixture f(16);
    return f;
}

/// The name of the kernel `b` runs on this host, or, when this host or
/// build lacks it, nullptr after skipping the point with what is missing.
const char* granted(benchmark::State& state, simd::Backend b) {
    if (simd::clamp_backend(b) == b) return simd::backend_name(b);
    const CpuFeatures& cpu = cpu_features();
    const char* missing = b == simd::Backend::Avx512 && !cpu.avx512 ? cpu.avx512_missing
                          : b == simd::Backend::Avx2 && !cpu.avx2   ? "AVX2"
                                                                    : nullptr;
    const std::string why = std::string(simd::backend_name(b)) + " not granted: " +
                            (missing != nullptr ? std::string(missing) + " missing"
                                                : std::string("kernel not compiled in"));
    state.SkipWithError(why.c_str());
    return nullptr;
}

void decode_with(benchmark::State& state, KernelFixture& f, simd::Backend b) {
    const char* name = granted(state, b);
    if (name == nullptr) return;
    simd::SimdRangeFn<u8> range{b};
    std::vector<u8> out(f.data.size());
    const DecodeTables t = f.model.tables();
    for (auto _ : state) {
        LaneCursor<Rans32, 32> cur;
        cur.x = f.bs.final_states;
        cur.p = static_cast<i64>(f.bs.units.size()) - 1;
        const RangeRun<Rans32, 32, u8> run{&cur, f.bs.units, f.data.size() - 1, 0, &t,
                                           out.data()};
        range({&run, 1});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * f.data.size()));
    state.SetLabel(name);
}

void BM_DecodeScalar_n11(benchmark::State& s) {
    decode_with(s, fixture11(), simd::Backend::Scalar);
}
void BM_DecodeAvx2_n11(benchmark::State& s) {
    decode_with(s, fixture11(), simd::Backend::Avx2);
}
void BM_DecodeAvx512_n11(benchmark::State& s) {
    decode_with(s, fixture11(), simd::Backend::Avx512);
}
void BM_DecodeScalar_n16(benchmark::State& s) {
    decode_with(s, fixture16(), simd::Backend::Scalar);
}
void BM_DecodeAvx2_n16(benchmark::State& s) {
    decode_with(s, fixture16(), simd::Backend::Avx2);
}
void BM_DecodeAvx512_n16(benchmark::State& s) {
    decode_with(s, fixture16(), simd::Backend::Avx512);
}
// The same fixture encoded at 16 and at 2,176 splits (the paper's GPU
// class) and decoded on one thread: the decoder groups the splits into
// tasks of up to four runs, which the kernel advances in lockstep, four at
// a time (AVX512) or two (AVX2), each through its split's synchronization
// groups and then its decoding range.
template <u32 kSplits>
void decode_splits_with(benchmark::State& state, simd::Backend b) {
    const char* name = granted(state, b);
    if (name == nullptr) return;
    static const auto enc = [] {
        const KernelFixture& f = fixture11();
        return recoil_encode<Rans32, 32>(std::span<const u8>(f.data), f.model, kSplits);
    }();
    const KernelFixture& f = fixture11();
    simd::SimdRangeFn<u8> range{b};
    std::vector<u8> out(f.data.size());
    const DecodeTables t = f.model.tables();
    for (auto _ : state) {
        recoil_decode_into<Rans32, 32, u8>(std::span<const u16>(enc.bitstream.units),
                                           enc.metadata, t, std::span<u8>(out),
                                           nullptr, nullptr, range);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * f.data.size()));
    state.SetLabel(name);
}

void BM_DecodeSplits16_Scalar(benchmark::State& s) {
    decode_splits_with<16>(s, simd::Backend::Scalar);
}
void BM_DecodeSplits16_Avx2(benchmark::State& s) {
    decode_splits_with<16>(s, simd::Backend::Avx2);
}
void BM_DecodeSplits16_Avx512(benchmark::State& s) {
    decode_splits_with<16>(s, simd::Backend::Avx512);
}
void BM_DecodeSplits2176_Scalar(benchmark::State& s) {
    decode_splits_with<2176>(s, simd::Backend::Scalar);
}
void BM_DecodeSplits2176_Avx2(benchmark::State& s) {
    decode_splits_with<2176>(s, simd::Backend::Avx2);
}
void BM_DecodeSplits2176_Avx512(benchmark::State& s) {
    decode_splits_with<2176>(s, simd::Backend::Avx512);
}

BENCHMARK(BM_DecodeScalar_n11);
BENCHMARK(BM_DecodeAvx2_n11);
BENCHMARK(BM_DecodeAvx512_n11);
BENCHMARK(BM_DecodeScalar_n16);
BENCHMARK(BM_DecodeAvx2_n16);
BENCHMARK(BM_DecodeAvx512_n16);
BENCHMARK(BM_DecodeSplits16_Scalar);
BENCHMARK(BM_DecodeSplits16_Avx2);
BENCHMARK(BM_DecodeSplits16_Avx512);
BENCHMARK(BM_DecodeSplits2176_Scalar);
BENCHMARK(BM_DecodeSplits2176_Avx2);
BENCHMARK(BM_DecodeSplits2176_Avx512);

// Decode tables built from pdfs, what a client pays before its first
// symbol: the decode-only model every decoder builds (decode_model) beside
// the encoder-side models that also yield them. Static: the n = 11 text pdf,
// or StaticModel (RecoilFile::build_static_model). Latent: perfbench's
// latent payload shape, 16 pdfs x 4,096 symbols at n = 14 with 2 MiB of
// ids, whose ids are checked once; or IndexedModelSet as
// RecoilFile::build_indexed_model builds it, with an id copy and an encode
// entry per pdf and symbol.
enum class Tables { decode_model, encoder_model };

void observe(const DecodeTables& t) {
    benchmark::DoNotOptimize(t.fc);
    benchmark::DoNotOptimize(t.sym);
    benchmark::ClobberMemory();
}

void BM_DecodeTables_Static(benchmark::State& state, Tables via) {
    const StaticModel& text = fixture11().model;
    std::vector<std::vector<u32>> pdf(1);
    for (u32 s = 0; s < text.alphabet(); ++s) pdf[0].push_back(text.freq(s));
    for (auto _ : state) {
        if (via == Tables::decode_model) {
            const DecodeModel m(pdf, 11);
            observe(m.tables());
        } else {
            const StaticModel m(std::span<const u32>(pdf[0]), 11, 0);
            observe(m.tables());
        }
    }
}
BENCHMARK_CAPTURE(BM_DecodeTables_Static, decode_model, Tables::decode_model);
BENCHMARK_CAPTURE(BM_DecodeTables_Static, static_model, Tables::encoder_model);

struct LatentPdfs {
    std::vector<std::vector<u32>> pdfs;
    std::vector<u8> ids;
    std::vector<u16> symbols;
};

const LatentPdfs& latent_pdfs() {
    static const LatentPdfs l = [] {
        constexpr u32 kProbBits = 14;
        auto ds = workload::gen_latents("div2k801", u64{1} << 21, 2.2, 1, 16);
        LatentPdfs out;
        for (const double sigma : ds.bin_sigma) {
            std::vector<u64> counts(ds.alphabet);
            const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
            for (u32 s = 0; s < ds.alphabet; ++s) {
                const double r =
                    static_cast<double>(static_cast<i32>(s) - workload::kLatentOffset);
                counts[s] = 1 + static_cast<u64>(std::exp(-r * r * inv2s2) * 1e12);
            }
            out.pdfs.push_back(quantize_pdf(counts, kProbBits));
        }
        out.ids = std::move(ds.ids);
        out.symbols = std::move(ds.symbols);
        return out;
    }();
    return l;
}

void BM_DecodeTables_Latent(benchmark::State& state, Tables via) {
    const LatentPdfs& l = latent_pdfs();
    for (auto _ : state) {
        if (via == Tables::decode_model) {
            const DecodeModel m(l.pdfs, 14, l.ids);
            observe(m.tables(l.ids.data()));
        } else {
            const IndexedModelSet m(l.pdfs, 14, std::vector<u8>(l.ids.begin(), l.ids.end()));
            observe(m.tables());
        }
    }
}
BENCHMARK_CAPTURE(BM_DecodeTables_Latent, decode_model, Tables::decode_model);
BENCHMARK_CAPTURE(BM_DecodeTables_Latent, indexed_model_set, Tables::encoder_model);

// The latent payload decoded on one thread at 1, 16 and 2,176 splits: 16-bit
// symbols through two-gather tables indexed by per-symbol model ids, the
// path of perfbench's latent fetches.
void decode_latent_with(benchmark::State& state, simd::Backend b) {
    const char* name = granted(state, b);
    if (name == nullptr) return;
    const LatentPdfs& l = latent_pdfs();
    static const auto enc = [&] {
        const IndexedModelSet set(l.pdfs, 14, l.ids);
        return recoil_encode<Rans32, 32>(std::span<const u16>(l.symbols), set, 2176);
    }();
    const RecoilMetadata meta = combine_splits(enc.metadata, static_cast<u32>(state.range(0)));
    const DecodeModel model(l.pdfs, 14, l.ids);
    const DecodeTables t = model.tables(l.ids.data());
    const simd::SimdRangeFn<u16> range{b};
    std::vector<u16> out(l.symbols.size());
    for (auto _ : state) {
        recoil_decode_into<Rans32, 32, u16>(std::span<const u16>(enc.bitstream.units), meta, t,
                                            std::span<u16>(out), nullptr, nullptr, range);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    if (out != l.symbols) state.SkipWithError("latent decode mismatch");
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * out.size() * 2));
    state.SetLabel(name);
}
void BM_DecodeLatent_Avx2(benchmark::State& s) { decode_latent_with(s, simd::Backend::Avx2); }
void BM_DecodeLatent_Avx512(benchmark::State& s) {
    decode_latent_with(s, simd::Backend::Avx512);
}
BENCHMARK(BM_DecodeLatent_Avx2)->Arg(1)->Arg(16)->Arg(2176);
BENCHMARK(BM_DecodeLatent_Avx512)->Arg(1)->Arg(16)->Arg(2176);

void BM_InterleavedEncode(benchmark::State& state) {
    auto& f = fixture11();
    for (auto _ : state) {
        auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(f.data), f.model);
        benchmark::DoNotOptimize(bs.units.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * f.data.size()));
}
BENCHMARK(BM_InterleavedEncode);

void BM_SplitPlanning(benchmark::State& state) {
    auto& f = fixture11();
    RenormEventList events;
    auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(f.data), f.model,
                                             &events);
    for (auto _ : state) {
        auto splits = plan_splits(events, bs.num_symbols,
                                  static_cast<u32>(state.range(0)), 32);
        benchmark::DoNotOptimize(splits);
    }
}
BENCHMARK(BM_SplitPlanning)->Arg(16)->Arg(256)->Arg(2176);

// The n = 11 fixture as a 2,176-split container: the asset a server adapts
// to each client class. Its metadata is the wire form a class-2176 client
// receives, written and parsed.
const format::RecoilFile& file2176() {
    static const format::RecoilFile file = [] {
        auto& f = fixture11();
        return format::make_recoil_file(
            recoil_encode<Rans32, 32>(std::span<const u8>(f.data), f.model, 2176),
            f.model, 1);
    }();
    return file;
}

const RecoilMetadata& metadata2176() { return file2176().metadata; }

void BM_MetadataSerialize(benchmark::State& state) {
    const RecoilMetadata& meta = metadata2176();
    for (auto _ : state) {
        auto bytes = serialize_metadata(meta);
        benchmark::DoNotOptimize(bytes.data());
    }
}
BENCHMARK(BM_MetadataSerialize);

void BM_MetadataDeserialize(benchmark::State& state) {
    const std::vector<u8> bytes = serialize_metadata(metadata2176());
    for (auto _ : state) {
        auto meta = deserialize_metadata(bytes);
        benchmark::DoNotOptimize(meta);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_MetadataDeserialize);

// The 2,176-split metadata adapted to a client class: a row gather at 16,
// the whole table copied at 2,176.
void BM_CombineSplits(benchmark::State& state) {
    const RecoilMetadata& meta = metadata2176();
    for (auto _ : state) {
        auto combined = combine_splits(meta, static_cast<u32>(state.range(0)));
        benchmark::DoNotOptimize(combined);
    }
}
BENCHMARK(BM_CombineSplits)->Arg(16)->Arg(2176);

// One adapted wire: the container serialized into a VectorSink at the
// class's metadata. After the first iteration the unit payload's checksum
// memo is warm, as it is for every fetch of a served asset after its first.
void BM_SaveRecoilFile(benchmark::State& state) {
    const format::RecoilFile& file = file2176();
    const RecoilMetadata meta =
        combine_splits(file.metadata, static_cast<u32>(state.range(0)));
    std::size_t wire = 0;
    for (auto _ : state) {
        format::VectorSink sink;
        format::save_recoil_file_into(file, meta, sink);
        wire = sink.out.size();
        benchmark::DoNotOptimize(sink.out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * wire));
}
BENCHMARK(BM_SaveRecoilFile)->Arg(1)->Arg(16)->Arg(2176);

void BM_TansTableBuild(benchmark::State& state) {
    auto& f = fixture11();
    auto pdf = quantize_pdf(histogram(f.data), static_cast<u32>(state.range(0)));
    for (auto _ : state) {
        TansTable t(pdf, static_cast<u32>(state.range(0)));
        benchmark::DoNotOptimize(&t);
    }
}
BENCHMARK(BM_TansTableBuild)->Arg(11)->Arg(16);

void BM_BitWriter(benchmark::State& state) {
    for (auto _ : state) {
        BitWriter bw;
        for (u32 i = 0; i < 4096; ++i) bw.put(i & 0x3ff, 10);
        auto bytes = bw.finish();
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * 4096 * 10 / 8));
}
BENCHMARK(BM_BitWriter);

// FNV-1a, the checksum every serialize, parse, frame check and reassembly
// pays per byte: the serial loop against the dispatched path, whose label
// names the path this CPU took, and the two-chain pass a framed miss and
// the client's reassembly take.
void fnv_with(benchmark::State& state, u64 (*hash)(std::span<const u8>, u64)) {
    const auto data =
        workload::gen_text(static_cast<std::size_t>(state.range(0)), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(hash(std::span<const u8>(data), format::kFnvInit));
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * data.size()));
}

void BM_Fnv1aSerial(benchmark::State& s) {
    fnv_with(s, &format::fnv1a_serial);
    s.SetLabel("serial");
}
void BM_Fnv1a(benchmark::State& s) {
    fnv_with(s, [](std::span<const u8> b, u64 h) { return format::fnv1a(b, h); });
    const CpuFeatures& cpu = cpu_features();
    s.SetLabel(cpu.avx512 ? std::string("bit-sliced avx512")
                          : std::string("serial: ") + cpu.avx512_missing + " missing");
}
void BM_Fnv1a2(benchmark::State& s) {
    const auto data = workload::gen_text(static_cast<std::size_t>(s.range(0)), 5);
    for (auto _ : s) {
        u64 a = format::kFnvInit;
        u64 b = ~format::kFnvInit;
        format::fnv1a2(std::span<const u8>(data), a, b);
        benchmark::DoNotOptimize(a);
        benchmark::DoNotOptimize(b);
    }
    s.SetBytesProcessed(static_cast<i64>(s.iterations() * data.size()));
}
BENCHMARK(BM_Fnv1aSerial)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);
BENCHMARK(BM_Fnv1a)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);
BENCHMARK(BM_Fnv1a2)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

}  // namespace

BENCHMARK_MAIN();
