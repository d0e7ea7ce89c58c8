// End-to-end integration tests across modules: the paper's compatibility
// claims (the Recoil bitstream IS the baseline bitstream), cross-codec
// round trips on the actual benchmark workloads, combining chains, and the
// full server->wire->client path on every backend.

#include <gtest/gtest.h>

#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "core/metadata_codec.hpp"
#include "core/recoil_encoder.hpp"
#include "format/container.hpp"
#include "rans/symbol_stats.hpp"
#include "simd/dispatch.hpp"
#include "tans/multians.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

TEST(EndToEnd, RecoilBitstreamIsBaselineBitstream) {
    // §1: "Recoil does not actually modify the rANS bitstream, but instead
    // works on independent metadata" — a stock interleaved decoder that
    // ignores the metadata must decode a Recoil stream unchanged.
    auto data = workload::gen_text(300000, 31);
    StaticModel model(histogram(data), 11);
    auto plain = interleaved_encode<Rans32, 32>(std::span<const u8>(data), model);
    auto recoil = recoil_encode<Rans32, 32>(std::span<const u8>(data), model, 64);
    EXPECT_EQ(plain.units, recoil.bitstream.units);
    EXPECT_EQ(plain.final_states, recoil.bitstream.final_states);
    auto dec = serial_decode<Rans32, 32, u8>(recoil.bitstream, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), data.begin()));
}

TEST(EndToEnd, AllBenchWorkloadsRoundTripAllDecoders) {
    ThreadPool pool(8);
    for (const auto& spec : workload::paper_byte_datasets(0.003)) {
        auto data = spec.generate(spec.size);
        for (u32 n : {11u, 16u}) {
            StaticModel model(histogram(data), n);
            auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(data), model, 128);
            std::span<const u16> units(enc.bitstream.units);
            // Scalar parallel.
            auto a = recoil_decode<Rans32, 32, u8>(units, enc.metadata,
                                                   model.tables(), &pool);
            // SIMD parallel.
            simd::SimdRangeFn<u8> range;
            auto b = recoil_decode<Rans32, 32, u8>(units, enc.metadata,
                                                   model.tables(), &pool, nullptr,
                                                   range);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), data.begin()))
                << spec.name << " n=" << n;
            ASSERT_EQ(a, b) << spec.name;
        }
    }
}

TEST(EndToEnd, LatentWorkloadFullPipeline) {
    auto ds = workload::gen_latents("e2e", 150000, 2.0, 41);
    auto models = ds.build_models(16);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), models, 96);
    ThreadPool pool(4);
    RecoilDecodeStats stats;
    auto dec = recoil_decode<Rans32, 32, u16>(std::span<const u16>(enc.bitstream.units),
                                              enc.metadata, models.tables(), &pool, &stats,
                                              simd::SimdRangeFn<u16>{});
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), ds.symbols.begin()));
    // Sync overhead stays a small fraction of the stream (the paper's
    // "negligible synchronization overhead" claim).
    EXPECT_LT(static_cast<double>(stats.sync_symbols),
              0.2 * static_cast<double>(ds.symbols.size()));
}

TEST(EndToEnd, RepeatedCombiningChains) {
    auto data = workload::gen_text(400000, 33);
    StaticModel model(histogram(data), 11);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(data), model, 512);
    // A CDN edge re-combining an already-combined stream must stay valid.
    auto m1 = combine_splits(enc.metadata, 128);
    auto m2 = combine_splits(m1, 32);
    auto m3 = combine_splits(m2, 5);
    for (const RecoilMetadata* m : {&m1, &m2, &m3}) {
        auto dec = recoil_decode<Rans32, 32, u8>(
            std::span<const u16>(enc.bitstream.units), *m, model.tables());
        ASSERT_TRUE(std::equal(dec.begin(), dec.end(), data.begin()));
    }
    // Serialization after every stage too.
    auto bytes = serialize_metadata(m3);
    auto back = deserialize_metadata(bytes);
    auto dec = recoil_decode<Rans32, 32, u8>(
        std::span<const u16>(enc.bitstream.units), back, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), data.begin()));
}

TEST(EndToEnd, ConventionalVsRecoilSameContent) {
    // Both codecs decode to the same content; Recoil's wire size with
    // combined metadata beats Conventional's Large at every client capacity.
    auto data = workload::gen_exponential(500000, 200, 35);
    StaticModel model(histogram(data), 11);
    auto rec = recoil_encode<Rans32, 32>(std::span<const u8>(data), model, 1024);
    auto conv = conventional_encode<Rans32, 32>(std::span<const u8>(data), model, 1024);
    const u64 conv_wire = conv.payload_bytes() + conv.overhead_bytes();
    for (u32 cap : {4u, 16u, 64u}) {
        auto meta = combine_splits(rec.metadata, cap);
        const u64 rec_wire =
            rec.bitstream.byte_size() + serialize_metadata(meta).size();
        EXPECT_LT(rec_wire, conv_wire) << "capacity " << cap;
        auto a = recoil_decode<Rans32, 32, u8>(
            std::span<const u16>(rec.bitstream.units), meta, model.tables());
        auto b = conventional_decode<Rans32, 32, u8>(conv, model.tables());
        ASSERT_EQ(a, b);
    }
}

TEST(EndToEnd, MultiansAgreesWithRansContent) {
    auto data = workload::gen_text(200000, 36);
    auto pdf = quantize_pdf(histogram(data), 11);
    TansTable table(pdf, 11);
    auto tenc = tans_encode<u8>(std::span<const u8>(data), table);
    ThreadPool pool(4);
    auto tdec = multians_decode<u8>(tenc, table, {}, &pool);
    EXPECT_TRUE(std::equal(tdec.begin(), tdec.end(), data.begin()));
}

TEST(EndToEnd, ServerWirePathWithChecksums) {
    auto data = workload::gen_text(250000, 37);
    StaticModel model(histogram(data), 11);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(data), model, 256);
    auto file = format::make_recoil_file(enc, model, 1);
    for (u32 cap : {1u, 3u, 64u}) {
        auto wire = format::save_recoil_file(file, combine_splits(file.metadata, cap));
        auto dec = format::decode_file(format::load_recoil_file(wire));
        ASSERT_TRUE(std::equal(dec.begin(), dec.end(), data.begin())) << cap;
    }
}

TEST(EndToEnd, ByteUnitConfigFullPath) {
    // The Rans32x8 (byte-unit, L=2^23) configuration through encode, split,
    // serialize, combine and decode — exercising 23-bit stored states.
    auto data = workload::gen_exponential(300000, 100, 38);
    StaticModel model(histogram(data), 11);
    auto enc = recoil_encode<Rans32x8, 32>(std::span<const u8>(data), model, 64);
    auto bytes = serialize_metadata(enc.metadata);
    auto meta = deserialize_metadata(bytes);
    EXPECT_EQ(meta.state_store_bits, 23u);
    auto combined = combine_splits(meta, 7);
    auto dec = recoil_decode<Rans32x8, 32, u8>(
        std::span<const u8>(enc.bitstream.units), combined, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), data.begin()));
}

}  // namespace
}  // namespace recoil
