// Micro-benchmarks (google-benchmark): decode kernel backends, table
// construction, metadata bit I/O, the FNV-1a checksum. Complements the
// table/figure harness with per-component numbers.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "format/wire_io.hpp"
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

void decode_with(benchmark::State& state, KernelFixture& f, simd::Backend b) {
    simd::SimdRangeFn<u8> range{simd::clamp_backend(b)};
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
// The same fixture encoded at 16 splits and decoded on one thread: the
// decoder pairs the splits, so the kernel advances two streams in lockstep.
void decode_splits16_with(benchmark::State& state, simd::Backend b) {
    static const auto enc = [] {
        const KernelFixture& f = fixture11();
        return recoil_encode<Rans32, 32>(std::span<const u8>(f.data), f.model, 16);
    }();
    const KernelFixture& f = fixture11();
    simd::SimdRangeFn<u8> range{simd::clamp_backend(b)};
    std::vector<u8> out(f.data.size());
    const DecodeTables t = f.model.tables();
    for (auto _ : state) {
        recoil_decode_into<Rans32, 32, u8>(std::span<const u16>(enc.bitstream.units),
                                           enc.metadata, t, std::span<u8>(out),
                                           nullptr, nullptr, range);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations() * f.data.size()));
}

void BM_DecodeSplits16_Scalar(benchmark::State& s) {
    decode_splits16_with(s, simd::Backend::Scalar);
}
void BM_DecodeSplits16_Avx2(benchmark::State& s) {
    decode_splits16_with(s, simd::Backend::Avx2);
}
void BM_DecodeSplits16_Avx512(benchmark::State& s) {
    decode_splits16_with(s, simd::Backend::Avx512);
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
        benchmark::DoNotOptimize(splits.data());
    }
}
BENCHMARK(BM_SplitPlanning)->Arg(16)->Arg(256)->Arg(2176);

void BM_MetadataSerialize(benchmark::State& state) {
    auto& f = fixture11();
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(f.data), f.model, 2176);
    for (auto _ : state) {
        auto bytes = serialize_metadata(enc.metadata);
        benchmark::DoNotOptimize(bytes.data());
    }
}
BENCHMARK(BM_MetadataSerialize);

void BM_CombineSplits(benchmark::State& state) {
    auto& f = fixture11();
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(f.data), f.model, 2176);
    for (auto _ : state) {
        auto combined = combine_splits(enc.metadata, 16);
        benchmark::DoNotOptimize(combined.splits.data());
    }
}
BENCHMARK(BM_CombineSplits);

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
// names the path this CPU took.
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
    s.SetLabel(cpu.avx512_fnv
                   ? std::string("bit-sliced avx512")
                   : std::string("serial: ") + cpu.avx512_fnv_missing + " missing");
}
BENCHMARK(BM_Fnv1aSerial)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);
BENCHMARK(BM_Fnv1a)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

}  // namespace

BENCHMARK_MAIN();
