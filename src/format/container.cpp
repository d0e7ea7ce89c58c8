#include "format/container.hpp"

#include <cstring>

#include "core/metadata_codec.hpp"
#include "format/wire_io.hpp"
#include "util/error.hpp"

namespace recoil::format {

using namespace wire;

namespace {

constexpr char kMagic[4] = {'R', 'C', 'F', '1'};

constexpr u64 kFnvPrime = 0x100000001b3ull;

}  // namespace

u64 fnv1a(std::span<const u8> bytes, u64 state) {
    for (u8 b : bytes) {
        state ^= b;
        state *= kFnvPrime;
    }
    return state;
}

u64 fnv1a(std::span<const u8> bytes) { return fnv1a(bytes, kFnvInit); }

void fnv1a2(std::span<const u8> bytes, u64& a, u64& b) {
    // Locals, not the references: u8 stores may alias a u64, which would
    // force both states through memory on every byte.
    u64 x = a;
    u64 y = b;
    for (u8 c : bytes) {
        x = (x ^ c) * kFnvPrime;
        y = (y ^ c) * kFnvPrime;
    }
    a = x;
    b = y;
}

void WireSink::write(ByteBuffer piece) {
    bytes_ += piece.size();
    if (frames_.bytes == 0) {
        digest_ = fnv1a(piece, digest_);
    } else {
        // Hold the piece as views, cut at frame boundaries; a frame that
        // fills has a known length and is folded at once.
        for (std::size_t off = 0; off < piece.size();) {
            const auto n = static_cast<std::size_t>(std::min<u64>(
                frames_.bytes - open_bytes_, piece.size() - off));
            open_.push_back(piece.slice(off, n));
            open_bytes_ += n;
            off += n;
            if (open_bytes_ == frames_.bytes)
                sums_.push_back(fold_open_frame(frames_.bytes));
        }
    }
    keep(std::move(piece));
}

u64 WireSink::fold_open_frame(u64 len) {
    u64 frame = frames_.header(static_cast<u32>(sums_.size()), len);
    for (const ByteBuffer& p : open_) fnv1a2(p, digest_, frame);
    open_.clear();
    open_bytes_ = 0;
    return frame;
}

void WireSink::seal() {
    u64 frame = 0;
    u64 room = 0;  // trailer bytes the open frame takes
    if (frames_.bytes != 0) {
        // The open frame's length is known now: the rest of the wire,
        // trailer included, up to a full frame.
        const u64 len = std::min<u64>(frames_.bytes, open_bytes_ + 8);
        room = len - open_bytes_;
        frame = fold_open_frame(len);
    }
    std::vector<u8> trailer;
    put_u64(trailer, digest_);  // the checksum covers everything above
    if (frames_.bytes != 0) {
        const std::span<const u8> t(trailer);
        sums_.push_back(fnv1a(t.first(room), frame));
        if (room < t.size())  // the rest of the trailer is one more frame
            sums_.push_back(fnv1a(
                t.subspan(room),
                frames_.header(static_cast<u32>(sums_.size()),
                               t.size() - room)));
    }
    bytes_ += trailer.size();
    keep(std::move(trailer));
}

StaticModel RecoilFile::build_static_model() const {
    const auto& p = std::get<StaticPayload>(model);
    return StaticModel(std::span<const u32>(p.freq), prob_bits, 0);
}

IndexedModelSet RecoilFile::build_indexed_model() const {
    const auto& p = std::get<IndexedPayload>(model);
    std::vector<StaticModel> models;
    models.reserve(p.freqs.size());
    for (const auto& f : p.freqs)
        models.emplace_back(std::span<const u32>(f), prob_bits, 0);
    return IndexedModelSet(std::move(models),
                           std::vector<u8>(p.ids.begin(), p.ids.end()));
}

std::vector<u8> save_recoil_file(const RecoilFile& f) {
    return save_recoil_file(f, f.metadata);
}

std::vector<u8> save_recoil_file(const RecoilFile& f,
                                 const RecoilMetadata& metadata) {
    VectorSink sink;
    save_recoil_file_into(f, metadata, sink);
    return std::move(sink.out);
}

void save_recoil_file_into(const RecoilFile& f, const RecoilMetadata& metadata,
                           WireSink& sink) {
    std::vector<u8> head;
    head.insert(head.end(), kMagic, kMagic + 4);
    head.push_back(2);  // version (2: unit payload aligned via pad marker)
    head.push_back(f.sym_width);
    head.push_back(f.is_indexed() ? 1 : 0);
    head.push_back(static_cast<u8>(f.prob_bits));

    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        put_u32(head, static_cast<u32>(p.freqs.size()));
        for (const auto& freq : p.freqs) put_freq_table(head, freq);
        put_u64(head, p.ids.size());
        sink.write(std::move(head));
        sink.write(p.ids);  // shared view of the id stream, never a copy
    } else {
        const auto& p = std::get<RecoilFile::StaticPayload>(f.model);
        put_freq_table(head, p.freq);
        sink.write(std::move(head));
    }

    std::vector<u8> mid;
    const std::vector<u8> meta = serialize_metadata(metadata);
    put_u64(mid, meta.size());
    mid.insert(mid.end(), meta.begin(), meta.end());
    put_u64(mid, f.units.size());
    put_unit_pad(mid, sink.bytes());
    sink.write(std::move(mid));
    sink.write(unit_wire_bytes(f.units, 0, f.units.size()));
    sink.seal();
}

namespace {

/// Shared parse: owning (keeper null: units/ids copied out of `bytes`) or
/// view mode (keeper owns `bytes`: units/ids borrow the mapped storage).
RecoilFile load_recoil_file_impl(std::span<const u8> bytes,
                                 const std::shared_ptr<const void>& keeper,
                                 bool checksum_verified) {
    Cursor c{checked_payload(bytes, "container", !checksum_verified),
             "container"};
    if (std::memcmp(c.get_bytes(4).data(), kMagic, 4) != 0)
        raise("container: bad magic");
    const u8 version = c.get_u8();
    if (version != 1 && version != 2) raise("container: unsupported version");

    RecoilFile f;
    f.sym_width = c.get_u8();
    if (f.sym_width != 1 && f.sym_width != 2) raise("container: bad symbol width");
    const bool indexed = c.get_u8() != 0;
    f.prob_bits = c.get_u8();
    if (f.prob_bits < 1 || f.prob_bits > 16) raise("container: bad prob_bits");

    if (indexed) {
        RecoilFile::IndexedPayload p;
        const u32 k = c.get_u32();
        if (k == 0 || k > 256) raise("container: bad model count");
        p.freqs.resize(k);
        for (auto& freq : p.freqs) freq = get_freq_table(c, f.prob_bits);
        const u64 ids_len = c.get_u64();
        auto ids = c.get_bytes(ids_len);
        if (keeper != nullptr)
            p.ids = ByteBuffer::view(ids, keeper);
        else
            p.ids = std::vector<u8>(ids.begin(), ids.end());
        f.model = std::move(p);
    } else {
        f.model = RecoilFile::StaticPayload{get_freq_table(c, f.prob_bits)};
    }

    const u64 meta_len = c.get_u64();
    f.metadata = deserialize_metadata(c.get_bytes(meta_len));

    const u64 unit_count = c.get_u64();
    if (version >= 2) skip_unit_pad(c);
    f.units = get_unit_buffer(c, unit_count, keeper);
    if (f.metadata.num_units != unit_count)
        raise("container: metadata/bitstream length mismatch");
    return f;
}

}  // namespace

RecoilFile load_recoil_file(std::span<const u8> bytes) {
    return load_recoil_file_impl(bytes, nullptr, false);
}

RecoilFile load_recoil_file_view(std::span<const u8> bytes,
                                 std::shared_ptr<const void> keeper,
                                 bool checksum_verified) {
    return load_recoil_file_impl(bytes, keeper, checksum_verified);
}

u64 serialized_file_size(const RecoilFile& f) {
    u64 n = 4 + 4;  // magic; version/sym_width/indexed/prob_bits
    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        n += 4;
        for (const auto& freq : p.freqs) n += 4 + 4 * freq.size();
        n += 8 + p.ids.size();
    } else {
        n += 4 + 4 * std::get<RecoilFile::StaticPayload>(f.model).freq.size();
    }
    n += 8 + serialize_metadata(f.metadata).size();
    n += 8;  // unit count
    n += wire::unit_pad_size(n);
    n += f.units.size() * 2;
    return n + 8;  // checksum
}

std::vector<u8> serve_combined(const RecoilFile& f, u32 target_splits) {
    return save_recoil_file(f, combine_splits(f.metadata, target_splits));
}

template <typename Model>
RecoilFile make_recoil_file(const RecoilEncoded<Rans32, 32>& enc, const Model& model,
                            u8 sym_width) {
    static_assert(std::is_same_v<Model, StaticModel>,
                  "indexed models carry external pdfs; assemble RecoilFile "
                  "with IndexedPayload manually");
    RecoilFile f;
    f.sym_width = sym_width;
    f.prob_bits = model.prob_bits();
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    RecoilFile::StaticPayload p;
    p.freq.resize(model.alphabet());
    for (u32 s = 0; s < model.alphabet(); ++s) p.freq[s] = model.freq(s);
    f.model = std::move(p);
    return f;
}

template RecoilFile make_recoil_file<StaticModel>(const RecoilEncoded<Rans32, 32>&,
                                                  const StaticModel&, u8);

namespace {
constexpr char kConvMagic[4] = {'C', 'N', 'V', '1'};
}

std::vector<u8> save_conventional_file(const ConventionalFile& f) {
    std::vector<u8> out;
    out.insert(out.end(), kConvMagic, kConvMagic + 4);
    out.push_back(1);  // version
    out.push_back(f.sym_width);
    out.push_back(static_cast<u8>(f.prob_bits));
    out.push_back(0);
    put_freq_table(out, f.freq);
    put_u64(out, f.payload.num_symbols);
    put_u64(out, f.payload.partitions.size());
    for (const auto& p : f.payload.partitions) {
        put_u64(out, p.sym_begin);
        put_u64(out, p.sym_count);
        put_u64(out, p.unit_begin);
        put_u64(out, p.unit_count);
        for (u32 s : p.final_states) put_u32(out, s);
    }
    put_u64(out, f.payload.units.size());
    const auto* ub = reinterpret_cast<const u8*>(f.payload.units.data());
    out.insert(out.end(), ub, ub + f.payload.units.size() * 2);
    append_checksum(out);
    return out;
}

ConventionalFile load_conventional_file(std::span<const u8> bytes) {
    Cursor c{checked_payload(bytes, "conventional container"),
             "conventional container"};
    if (std::memcmp(c.get_bytes(4).data(), kConvMagic, 4) != 0)
        raise("conventional container: bad magic");
    if (c.get_u8() != 1) raise("conventional container: unsupported version");
    ConventionalFile f;
    f.sym_width = c.get_u8();
    if (f.sym_width != 1 && f.sym_width != 2)
        raise("conventional container: bad symbol width");
    f.prob_bits = c.get_u8();
    if (f.prob_bits < 1 || f.prob_bits > 16)
        raise("conventional container: bad prob_bits");
    (void)c.get_u8();
    f.freq = get_freq_table(c, f.prob_bits);
    f.payload.num_symbols = c.get_u64();
    const u64 parts = c.get_u64();
    if (parts == 0 || parts > (u64{1} << 24))
        raise("conventional container: bad partition count");
    f.payload.partitions.resize(parts);
    u64 covered = 0;
    u64 units_covered = 0;
    for (auto& p : f.payload.partitions) {
        p.sym_begin = c.get_u64();
        p.sym_count = c.get_u64();
        p.unit_begin = c.get_u64();
        p.unit_count = c.get_u64();
        if (p.sym_begin != covered || p.unit_begin != units_covered)
            raise("conventional container: partitions not contiguous");
        covered += p.sym_count;
        units_covered += p.unit_count;
        for (auto& s : p.final_states) s = c.get_u32();
    }
    if (covered != f.payload.num_symbols)
        raise("conventional container: partitions do not cover the stream");
    const u64 unit_count = c.get_u64();
    if (unit_count != units_covered)
        raise("conventional container: unit count mismatch");
    auto units = c.get_unit_bytes(unit_count);
    f.payload.units.resize(unit_count);
    std::memcpy(f.payload.units.data(), units.data(), unit_count * 2);
    return f;
}

}  // namespace recoil::format
