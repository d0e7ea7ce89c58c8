// Tests for the chunked streaming layer: per-chunk models, two-level
// parallel decode, random access, adaptive serving and corruption handling.

#include <gtest/gtest.h>

#include "stream/chunked.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

using namespace stream;

std::vector<std::vector<u8>> make_chunks(int count, u64 seed) {
    std::vector<std::vector<u8>> chunks;
    Xoshiro256 rng(seed);
    for (int i = 0; i < count; ++i) {
        // Wildly different sizes and statistics per chunk: each gets its own
        // model, like frames of different content.
        const std::size_t n = 5000 + rng.below(120000);
        const double q = 0.1 + 0.8 * rng.uniform();
        chunks.push_back(test::geometric_symbols<u8>(n, q, 256, seed * 100 + i));
    }
    return chunks;
}

std::vector<u8> concat(const std::vector<std::vector<u8>>& chunks) {
    std::vector<u8> all;
    for (const auto& c : chunks) all.insert(all.end(), c.begin(), c.end());
    return all;
}

TEST(Chunked, RoundTripMultipleChunks) {
    auto chunks = make_chunks(7, 1);
    ChunkedEncoder enc;
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    EXPECT_EQ(stream.chunks.size(), 7u);
    auto dec = decode_chunked(stream);
    EXPECT_EQ(dec, concat(chunks));
}

TEST(Chunked, ParallelMatchesSerial) {
    auto chunks = make_chunks(9, 2);
    ChunkedEncoder enc;
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    ThreadPool pool(8);
    auto serial = decode_chunked(stream, nullptr);
    auto parallel = decode_chunked(stream, &pool);
    EXPECT_EQ(serial, parallel);
}

TEST(Chunked, RandomAccessSingleChunk) {
    auto chunks = make_chunks(5, 3);
    ChunkedEncoder enc;
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        auto dec = decode_chunk(stream.chunks[i], stream.prob_bits);
        EXPECT_EQ(dec, chunks[i]) << "chunk " << i;
    }
}

TEST(Chunked, SerializeParseRoundTrip) {
    auto chunks = make_chunks(4, 4);
    ChunkedEncoder enc;
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    auto bytes = stream.serialize();
    auto back = ChunkedStream::parse(bytes);
    EXPECT_EQ(back.prob_bits, stream.prob_bits);
    ASSERT_EQ(back.chunks.size(), stream.chunks.size());
    auto dec = decode_chunked(back);
    EXPECT_EQ(dec, concat(chunks));
}

TEST(Chunked, CombinedServingScalesParallelism) {
    auto chunks = make_chunks(6, 5);
    ChunkedEncoder enc({11, 64});
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    const u64 full = stream.total_splits();
    EXPECT_GT(full, 32u);
    auto small = stream.combined(8);
    EXPECT_LE(small.total_splits(), 8u + stream.chunks.size());
    EXPECT_LT(small.serialize().size(), stream.serialize().size());
    ThreadPool pool(4);
    EXPECT_EQ(decode_chunked(small, &pool), concat(chunks));
}

TEST(Chunked, CorruptionDetected) {
    auto chunks = make_chunks(3, 6);
    ChunkedEncoder enc;
    for (const auto& c : chunks) enc.add_chunk(c);
    auto bytes = enc.finish().serialize();
    Xoshiro256 rng(7);
    for (int iter = 0; iter < 20; ++iter) {
        auto bad = bytes;
        bad[rng.below(bad.size())] ^= static_cast<u8>(1 + rng.below(255));
        EXPECT_THROW(ChunkedStream::parse(bad), Error);
    }
    std::vector<u8> truncated(bytes.begin(), bytes.begin() + bytes.size() / 3);
    EXPECT_THROW(ChunkedStream::parse(truncated), Error);
    // A chunk count (bytes 8-11) the bytes cannot hold, resealed: it fails
    // before the chunk list is sized by it.
    const auto many = test::reseal(test::with_le(bytes, 8, u32{1} << 20));
    EXPECT_NE(test::error_of([&] { (void)ChunkedStream::parse(many); })
                  .find("chunked: chunk count exceeds the bytes"),
              std::string::npos);
}

TEST(Chunked, SingleTinyChunk) {
    ChunkedEncoder enc;
    std::vector<u8> tiny{1, 2, 3, 1, 2, 3, 9};
    enc.add_chunk(tiny);
    auto stream = enc.finish();
    EXPECT_EQ(decode_chunked(stream), tiny);
}

TEST(Chunked, EmptyChunkRejected) {
    ChunkedEncoder enc;
    std::vector<u8> empty;
    EXPECT_THROW(enc.add_chunk(empty), Error);
}

TEST(Chunked, ManySmallChunksSaturateFlatWorkList) {
    std::vector<std::vector<u8>> chunks;
    for (int i = 0; i < 64; ++i)
        chunks.push_back(test::geometric_symbols<u8>(3000, 0.5, 256, 800 + i));
    ChunkedEncoder enc({11, 4});
    for (const auto& c : chunks) enc.add_chunk(c);
    auto stream = enc.finish();
    EXPECT_GE(stream.total_splits(), 64u);
    ThreadPool pool(8);
    EXPECT_EQ(decode_chunked(stream, &pool), concat(chunks));
}

}  // namespace
}  // namespace recoil
