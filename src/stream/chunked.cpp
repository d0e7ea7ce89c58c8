#include "stream/chunked.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "core/split_planner.hpp"
#include "format/container.hpp"
#include "format/wire_io.hpp"
#include "rans/symbol_stats.hpp"
#include "util/error.hpp"

namespace recoil::stream {

using namespace format::wire;

namespace {

constexpr char kMagic[4] = {'R', 'C', 'S', '2'};  ///< padded unit payloads
/// The fewest bytes one chunk can take: a one-symbol freq table (8), the
/// metadata length (8) and smallest metadata, the unit count (8) and a pad
/// marker (1).
constexpr std::size_t kMinChunkBytes = 8 + 8 + kMinMetadataBytes + 8 + 1;

}  // namespace

void ChunkedEncoder::add_chunk(std::span<const u8> data) {
    RECOIL_CHECK(!data.empty(), "add_chunk: empty chunk");
    if (stream_.chunks.empty()) stream_.prob_bits = opt_.prob_bits;
    StaticModel model(histogram(data), opt_.prob_bits);
    auto enc = recoil_encode<Rans32, 32>(data, model, opt_.max_splits_per_chunk);
    Chunk c;
    c.freq.resize(model.alphabet());
    for (u32 s = 0; s < model.alphabet(); ++s) c.freq[s] = model.freq(s);
    c.metadata = std::move(enc.metadata);
    c.units = std::move(enc.bitstream.units);
    stream_.chunks.push_back(std::move(c));
}

std::vector<u64> ChunkedStream::chunk_offsets() const {
    std::vector<u64> off(chunks.size() + 1, 0);
    for (std::size_t i = 0; i < chunks.size(); ++i)
        off[i + 1] = off[i] + chunks[i].metadata.num_symbols;
    return off;
}

std::vector<u8> ChunkedStream::serialize() const {
    format::VectorSink sink;
    serialize_into(sink);
    return std::move(sink.out);
}

void ChunkedStream::serialize_into(format::WireSink& sink) const {
    std::vector<u8> head;
    put_magic(head, kMagic);
    put_u32(head, prob_bits);
    put_u32(head, static_cast<u32>(chunks.size()));
    sink.write(std::move(head));
    for (const Chunk& c : chunks) {
        std::vector<u8> section;
        put_freq_table(section, c.freq);
        const auto meta = serialize_metadata(c.metadata);
        put_u64(section, meta.size());
        section.insert(section.end(), meta.begin(), meta.end());
        put_u64(section, c.units.size());
        put_unit_pad(section, sink.bytes());
        sink.write(std::move(section));
        sink.write(c.units.as_bytes());
    }
    sink.seal();
}

u64 ChunkedStream::serialized_size() const {
    u64 n = 4 + 4 + 4;  // magic, prob_bits, chunk count
    for (const Chunk& c : chunks) {
        n += 4 + 4 * c.freq.size();
        n += 8 + serialize_metadata(c.metadata).size();
        n += 8;  // unit count
        n += unit_pad_size(n);
        n += c.units.size() * 2;
    }
    return n + 8;  // checksum
}

namespace {

ChunkedStream parse_impl(std::span<const u8> bytes,
                         const std::shared_ptr<const void>& keeper,
                         bool checksum_verified) {
    Cursor c{checked_payload(bytes, "chunked", !checksum_verified), "chunked"};
    if (std::memcmp(c.get_bytes(4).data(), kMagic, 4) != 0) raise("chunked: bad magic");
    ChunkedStream s;
    s.prob_bits = c.get_u32();
    if (s.prob_bits < 1 || s.prob_bits > 16) raise("chunked: bad prob_bits");
    const u32 n = c.get_u32();
    c.need_items(n, kMinChunkBytes, "chunk");
    s.chunks.resize(n);
    for (Chunk& ch : s.chunks) {
        ch.freq = get_freq_table(c, s.prob_bits, max_alphabet(1));  // chunks carry bytes
        const u64 mlen = c.get_u64();
        ch.metadata = deserialize_metadata(c.get_bytes(mlen));
        const u64 ulen = c.get_u64();
        skip_unit_pad(c);
        ch.units = get_unit_buffer(c, ulen, keeper);
        if (ch.metadata.num_units != ulen)
            raise("chunked: metadata/bitstream length mismatch");
    }
    return s;
}

}  // namespace

ChunkedStream ChunkedStream::parse(std::span<const u8> bytes) {
    return parse_impl(bytes, nullptr, false);
}

ChunkedStream ChunkedStream::parse_view(std::span<const u8> bytes,
                                        std::shared_ptr<const void> keeper,
                                        bool checksum_verified) {
    return parse_impl(bytes, keeper, checksum_verified);
}

ChunkedStream ChunkedStream::combined(u32 target_parallelism) const {
    ChunkedStream out;
    out.prob_bits = prob_bits;
    out.chunks.reserve(chunks.size());
    const u64 total = total_symbols();
    for (const Chunk& c : chunks) {
        Chunk nc;
        nc.freq = c.freq;
        nc.units = c.units;
        // Budget parallelism proportionally to chunk size.
        const u64 share =
            total == 0 ? 1
                       : std::max<u64>(1, (u64{target_parallelism} *
                                           c.metadata.num_symbols + total / 2) /
                                              total);
        nc.metadata = combine_splits(c.metadata, static_cast<u32>(share));
        out.chunks.push_back(std::move(nc));
    }
    return out;
}

std::vector<u8> decode_chunk(const Chunk& chunk, u32 prob_bits, ThreadPool* pool,
                             simd::Backend backend) {
    const DecodeModel model({&chunk.freq, 1}, prob_bits);
    simd::SimdRangeFn<u8> range{backend};
    return recoil_decode<Rans32, 32, u8>(std::span<const u16>(chunk.units),
                                         chunk.metadata, model.tables(), pool,
                                         nullptr, range);
}

std::vector<u8> decode_chunked(const ChunkedStream& stream, ThreadPool* pool,
                               simd::Backend backend) {
    // Flatten every chunk's splits into one work list (adjacent items group
    // into tasks, across chunk boundaries too) and prebuild the tables.
    const std::size_t n = stream.chunks.size();
    std::vector<DecodeModel> models;
    std::vector<DecodeTables> tables;
    models.reserve(n);
    tables.reserve(n);  // jobs point into it
    std::vector<SplitJob<Rans32, u8>> jobs;
    std::vector<u8> out(stream.total_symbols());
    u8* base = out.data();
    for (const Chunk& c : stream.chunks) {
        models.emplace_back(std::span<const std::vector<u32>>(&c.freq, 1),
                            stream.prob_bits);
        tables.push_back(models.back().tables());
        for (u32 k = 0; k < c.metadata.num_splits(); ++k)
            jobs.push_back({std::span<const u16>(c.units), &c.metadata, &tables.back(), k,
                            base});
        base += c.metadata.num_symbols;
    }

    simd::SimdRangeFn<u8> range{backend};
    for_each_split_task(pool, jobs.size(), [&](u64 first, u32 count) {
        recoil_decode_splits<Rans32, 32, u8>(
            std::span<const SplitJob<Rans32, u8>>(jobs).subspan(first, count), range);
    });
    return out;
}

}  // namespace recoil::stream
