#include "serve/range_wire.hpp"

#include <cstring>
#include <optional>

#include "core/metadata_codec.hpp"
#include "core/random_access.hpp"
#include "format/wire_io.hpp"
#include "rans/indexed_model.hpp"
#include "simd/dispatch.hpp"
#include "util/error.hpp"

namespace recoil::serve {

using namespace format::wire;

namespace {

constexpr char kMagic[4] = {'R', 'C', 'R', '2'};
constexpr u8 kVersion = 2;
constexpr u8 kFlagHasPrev = 1;
constexpr u8 kFlagIncludesFinal = 2;
constexpr u8 kFlagIndexed = 4;

/// One stream a segment is cut from: metadata + units + model payload.
/// `freqs`/`ids` are set for indexed-model streams, `freq` otherwise. Units
/// and ids are shared buffers, so segment emission hands out borrowed views
/// of the asset's storage instead of copying slices.
struct SegmentSource {
    u64 base = 0;  ///< stream's first symbol in the asset's flat symbol space
    const RecoilMetadata* meta = nullptr;
    const format::UnitBuffer* units = nullptr;
    u32 prob_bits = 0;
    std::span<const u32> freq;
    const std::vector<std::vector<u32>>* freqs = nullptr;
    const format::ByteBuffer* ids = nullptr;
};

/// Emit one segment covering LOCAL symbols [lo, hi) of `src`; returns the
/// covering split count.
u32 emit_segment(format::WireSink& sink, const SegmentSource& src, u64 lo,
                 u64 hi) {
    const RecoilMetadata& meta = *src.meta;
    const RangePlan plan = plan_range(meta, lo, hi);  // validates the range
    const u32 S = meta.num_splits();
    const bool has_prev = plan.first_split > 0;
    const bool includes_final = plan.last_split == S - 1;
    const bool indexed = src.freqs != nullptr;

    // Unit slice bounds (see header comment for why these are safe).
    const u64 unit_lo = plan.first_split <= 1
                            ? 0
                            : meta.splits[plan.first_split - 2].offset + 1;
    const u64 unit_hi = includes_final ? meta.num_units
                                       : meta.splits[plan.last_split].offset + 1;

    RecoilMetadata sub;
    sub.lanes = meta.lanes;
    sub.state_store_bits = meta.state_store_bits;
    sub.num_symbols = meta.num_symbols;  // absolute indexing
    sub.num_units = unit_hi - unit_lo;
    sub.final_states = meta.final_states;
    const u32 entry_lo = has_prev ? plan.first_split - 1 : plan.first_split;
    const u32 entry_hi =  // exclusive; the final split has no entry of its own
        includes_final ? S - 1 : plan.last_split + 1;
    for (u32 i = entry_lo; i < entry_hi; ++i) {
        SplitPoint sp = meta.splits[i];
        sp.offset -= unit_lo;
        sub.splits.push_back(std::move(sp));
    }

    std::vector<u8> head;
    put_u64(head, src.base);
    head.push_back(static_cast<u8>((has_prev ? kFlagHasPrev : 0) |
                                   (includes_final ? kFlagIncludesFinal : 0) |
                                   (indexed ? kFlagIndexed : 0)));
    head.push_back(static_cast<u8>(src.prob_bits));
    put_u16(head, 0);  // reserved
    put_u64(head, lo);
    put_u64(head, hi);
    put_u32(head, plan.first_split);

    if (indexed) {
        put_u32(head, static_cast<u32>(src.freqs->size()));
        for (const auto& f : *src.freqs) put_freq_table(head, f);
        // The model-id slice must reach every position the covering splits
        // touch: synchronization decodes past cover_hi up to the last
        // split's anchor.
        const u64 ids_lo = plan.cover_lo;
        const u64 ids_hi = plan_touch_hi(meta, plan);
        put_u64(head, ids_lo);
        put_u64(head, ids_hi - ids_lo);
        sink.write(std::move(head));
        sink.write(format::ByteBuffer::view(
            std::span<const u8>(*src.ids).subspan(ids_lo, ids_hi - ids_lo),
            src.ids->keeper()));
        head = {};
    } else {
        put_freq_table(head, src.freq);
    }

    const std::vector<u8> meta_bytes = serialize_metadata(sub);
    put_u64(head, meta_bytes.size());
    head.insert(head.end(), meta_bytes.begin(), meta_bytes.end());
    put_u64(head, unit_hi - unit_lo);
    sink.write(std::move(head));
    sink.write(format::unit_wire_bytes(*src.units, unit_lo, unit_hi - unit_lo));

    return plan.last_split - plan.first_split + 1;
}

u32 build_wire_into(std::span<const SegmentSource> sources, u64 lo, u64 hi,
                    u8 sym_width, format::WireSink& sink) {
    // Segments: every source stream intersecting [lo, hi). Counted up front
    // so the header is complete before the first segment is emitted (a
    // streaming sink cannot backpatch).
    u32 count = 0;
    for (const SegmentSource& src : sources) {
        const u64 n = src.meta->num_symbols;
        if (src.base < hi && src.base + n > lo) ++count;
    }
    RECOIL_CHECK(count > 0, "range wire: no intersecting streams");

    std::vector<u8> head;
    put_magic(head, kMagic);
    head.push_back(kVersion);
    head.push_back(sym_width);
    put_u16(head, 0);  // reserved
    put_u64(head, lo);
    put_u64(head, hi);
    put_u32(head, count);
    sink.write(std::move(head));

    u32 splits = 0;
    for (const SegmentSource& src : sources) {
        const u64 n = src.meta->num_symbols;
        if (src.base >= hi || src.base + n <= lo) continue;
        const u64 local_lo = lo > src.base ? lo - src.base : 0;
        const u64 local_hi = std::min(hi - src.base, n);
        splits += emit_segment(sink, src, local_lo, local_hi);
    }
    sink.seal();
    return splits;
}

/// Everything decode needs for one segment, parsed and validated.
struct ParsedSegment {
    RangeSegmentInfo info;
    u32 prob_bits = 0;
    std::vector<std::vector<u32>> freqs;  ///< one table unless indexed
    std::vector<u8> ids;                  ///< indexed: slice starting at ids_lo
    u64 ids_lo = 0;
    RecoilMetadata meta;  ///< slice metadata: absolute symbols, rebased units
    std::vector<u16> units;
    u32 j0 = 0, j1 = 0;  ///< slice split indices to decode, inclusive
};

struct ParsedRange {
    RangeWireInfo info;
    std::vector<ParsedSegment> segments;
};

ParsedSegment parse_segment(Cursor& c) {
    ParsedSegment p;
    RangeSegmentInfo& info = p.info;
    info.base = c.get_u64();
    const u8 flags = c.get_u8();
    info.has_prev = (flags & kFlagHasPrev) != 0;
    info.includes_final = (flags & kFlagIncludesFinal) != 0;
    info.indexed = (flags & kFlagIndexed) != 0;
    p.prob_bits = c.get_u8();
    if (p.prob_bits < 1 || p.prob_bits > 16) raise("range wire: bad prob_bits");
    if (c.get_u16() != 0) raise("range wire: reserved bits set");

    info.lo = c.get_u64();
    info.hi = c.get_u64();
    info.first_split = c.get_u32();

    u64 ids_len = 0;
    if (info.indexed) {
        const u32 k = c.get_u32();
        if (k == 0 || k > 256) raise("range wire: bad model count");
        p.freqs.resize(k);
        for (auto& f : p.freqs) f = get_freq_table(c, p.prob_bits);
        p.ids_lo = c.get_u64();
        ids_len = c.get_u64();
        auto ids = c.get_bytes(ids_len);
        p.ids.assign(ids.begin(), ids.end());
    } else {
        p.freqs.push_back(get_freq_table(c, p.prob_bits));
    }

    const u64 meta_len = c.get_u64();
    p.meta = deserialize_metadata(c.get_bytes(meta_len));

    const u64 unit_count = c.get_u64();
    auto units = c.get_unit_bytes(unit_count);
    p.units.resize(unit_count);
    // A boundary-only slice can carry zero units; memcpy from the (then
    // null) slice pointer is UB even at size 0.
    if (unit_count != 0)
        std::memcpy(p.units.data(), units.data(), unit_count * 2);
    if (p.meta.num_units != unit_count)
        raise("range wire: metadata/slice length mismatch");
    info.unit_count = unit_count;

    // Derive the decode schedule and coverage from the slice structure.
    const u32 slice_splits = p.meta.num_splits();
    if ((info.has_prev || !info.includes_final) && p.meta.splits.empty())
        raise("range wire: boundary split missing");
    p.j0 = info.has_prev ? 1 : 0;
    p.j1 = info.includes_final ? slice_splits - 1
                               : slice_splits - 2;  // skip the implicit final
    if (p.j1 < p.j0 || p.j1 >= slice_splits)
        raise("range wire: no decodable splits");
    info.splits_served = p.j1 - p.j0 + 1;
    info.cover_lo = info.has_prev ? p.meta.splits.front().min_index : 0;
    info.cover_hi = info.includes_final ? p.meta.num_symbols
                                        : p.meta.splits.back().min_index;
    if (info.lo < info.cover_lo || info.hi > info.cover_hi ||
        info.lo >= info.hi)
        raise("range wire: requested range outside slice coverage");
    if (info.indexed) {
        // The id slice must start at the coverage base and reach the last
        // shipped split's anchor (what synchronization touches), exactly.
        const u64 touch_hi = info.includes_final
                                 ? p.meta.num_symbols
                                 : p.meta.splits.back().anchor_index + 1;
        if (p.ids_lo != info.cover_lo || touch_hi < p.ids_lo ||
            ids_len != touch_hi - p.ids_lo)
            raise("range wire: model id slice does not match coverage");
    }
    return p;
}

ParsedRange parse_range_wire(std::span<const u8> bytes) {
    Cursor c{checked_payload(bytes, "range wire"), "range wire"};
    if (std::memcmp(c.get_bytes(4).data(), kMagic, 4) != 0)
        raise("range wire: bad magic");
    if (c.get_u8() != kVersion) raise("range wire: unsupported version");

    ParsedRange p;
    RangeWireInfo& info = p.info;
    info.sym_width = c.get_u8();
    if (info.sym_width != 1 && info.sym_width != 2)
        raise("range wire: bad symbol width");
    if (c.get_u16() != 0) raise("range wire: reserved bits set");
    info.lo = c.get_u64();
    info.hi = c.get_u64();
    if (info.lo >= info.hi) raise("range wire: empty range");

    const u32 count = c.get_u32();
    if (count == 0 || count > (u32{1} << 24))
        raise("range wire: bad segment count");
    p.segments.reserve(count);
    // Segments must tile [lo, hi) exactly, in order, with no gaps: the next
    // segment starts where the previous one ended.
    u64 expected = info.lo;
    for (u32 i = 0; i < count; ++i) {
        ParsedSegment seg = parse_segment(c);
        if (seg.info.lo > expected || seg.info.base != expected - seg.info.lo)
            raise("range wire: segments do not tile the range");
        if (seg.info.hi > info.hi - seg.info.base)
            raise("range wire: segment past the requested range");
        expected = seg.info.base + seg.info.hi;
        info.splits_served += seg.info.splits_served;
        info.segments.push_back(seg.info);
        p.segments.push_back(std::move(seg));
    }
    if (expected != info.hi) raise("range wire: segments do not reach hi");
    return p;
}

template <typename TSym>
std::vector<TSym> decode_range_impl(std::span<const u8> bytes,
                                    ThreadPool* pool, simd::Backend backend) {
    ParsedRange p = parse_range_wire(bytes);
    if (p.info.sym_width != sizeof(TSym))
        raise("range wire: symbol width mismatch");

    std::vector<TSym> out(p.info.hi - p.info.lo);
    const simd::SimdRangeFn<TSym> range_fn{simd::clamp_backend(backend)};
    for (ParsedSegment& seg : p.segments) {
        const RangeSegmentInfo& info = seg.info;
        // One of the two models backs the tables.
        std::optional<IndexedModelSet> set;
        std::optional<StaticModel> model;
        DecodeTables t;
        if (info.indexed) {
            set.emplace(std::span<const std::vector<u32>>(seg.freqs), seg.prob_bits,
                        std::move(seg.ids));
            t = set->tables();
            // The slice's ids[0] is position ids_lo; rebase so the decoder's
            // absolute indexing lands on it (integer arithmetic to stay
            // clear of out-of-bounds pointer UB). parse_segment checked that
            // the slice is exactly the positions the covering splits touch.
            t.ids = reinterpret_cast<const u8*>(
                reinterpret_cast<std::uintptr_t>(t.ids) -
                static_cast<std::uintptr_t>(seg.ids_lo));
        } else {
            model.emplace(std::span<const u32>(seg.freqs[0]), seg.prob_bits, 0);
            t = model->tables();
        }
        const std::vector<TSym> cover = recoil_decode_cover<Rans32, 32, TSym>(
            std::span<const u16>(seg.units), seg.meta, t, seg.j0, seg.j1, info.cover_lo,
            info.cover_hi, pool, range_fn);
        std::copy(cover.begin() + static_cast<std::ptrdiff_t>(info.lo - info.cover_lo),
                  cover.begin() + static_cast<std::ptrdiff_t>(info.hi - info.cover_lo),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(info.base + info.lo - p.info.lo));
    }
    return out;
}

}  // namespace

u32 range_wire_into(const format::RecoilFile& f, u64 lo, u64 hi,
                    format::WireSink& sink) {
    SegmentSource src;
    src.base = 0;
    src.meta = &f.metadata;
    src.units = &f.units;
    src.prob_bits = f.prob_bits;
    if (f.is_indexed()) {
        const auto& payload = std::get<format::RecoilFile::IndexedPayload>(f.model);
        RECOIL_CHECK(payload.ids.size() >= f.metadata.num_symbols,
                     "range wire: id stream shorter than the symbol stream");
        src.freqs = &payload.freqs;
        src.ids = &payload.ids;
    } else {
        src.freq = std::get<format::RecoilFile::StaticPayload>(f.model).freq;
    }
    return build_wire_into({&src, 1}, lo, hi, f.sym_width, sink);
}

u32 range_wire_into(const stream::ChunkedStream& s, u64 lo, u64 hi,
                    format::WireSink& sink) {
    const std::vector<u64> offsets = s.chunk_offsets();
    std::vector<SegmentSource> sources;
    sources.reserve(s.chunks.size());
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
        SegmentSource src;
        src.base = offsets[i];
        src.meta = &s.chunks[i].metadata;
        src.units = &s.chunks[i].units;
        src.prob_bits = s.prob_bits;
        src.freq = s.chunks[i].freq;
        sources.push_back(src);
    }
    return build_wire_into(sources, lo, hi, 1, sink);
}

RangeWireInfo inspect_range_wire(std::span<const u8> bytes) {
    return parse_range_wire(bytes).info;
}

std::vector<u8> decode_range_wire(std::span<const u8> bytes, ThreadPool* pool,
                                  simd::Backend backend) {
    return decode_range_impl<u8>(bytes, pool, backend);
}

std::vector<u16> decode_range_wire_u16(std::span<const u8> bytes,
                                       ThreadPool* pool,
                                       simd::Backend backend) {
    return decode_range_impl<u16>(bytes, pool, backend);
}

}  // namespace recoil::serve
