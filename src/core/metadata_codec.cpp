#include "core/metadata_codec.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/bitio.hpp"
#include "util/error.hpp"

namespace recoil {

namespace {

constexpr u32 kGlobalLenBits = 5;  // series elements up to 32-bit magnitudes
constexpr u32 kLaneLenBits = 4;    // series elements up to 16-bit magnitudes

// A signed element is its magnitude in maxbits bits, then a sign bit: one
// (maxbits + 1)-bit field, LSB-first.
void write_signed_series(BitWriter& bw, std::span<const i64> vals, u32 len_bits) {
    std::vector<u64> fields(vals.size());
    u64 all = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        fields[i] = static_cast<u64>(vals[i] < 0 ? -vals[i] : vals[i]);
        all |= fields[i];
    }
    const u32 maxbits = bits_for(all);  // the widest magnitude's width
    RECOIL_CHECK(maxbits <= (u32{1} << len_bits), "metadata series element too wide");
    bw.put(maxbits - 1, len_bits);
    for (std::size_t i = 0; i < vals.size(); ++i) fields[i] |= u64{vals[i] < 0} << maxbits;
    bw.put_all(std::span<const u64>(fields), maxbits + 1);
}

/// Read a series written by write_signed_series of differences against
/// (i + 1) * expected, reconstructing each value in place in `out`.
void read_signed_series(BitReader& br, std::span<u64> out, u32 len_bits, u64 expected) {
    const u32 maxbits = static_cast<u32>(br.get(len_bits)) + 1;
    br.get_all(out, maxbits + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const i64 mag = static_cast<i64>(out[i] & ((u64{1} << maxbits) - 1));
        const i64 v = static_cast<i64>((i + 1) * expected) + (out[i] >> maxbits ? -mag : mag);
        if (v < 0) raise("metadata: negative reconstructed value");
        out[i] = static_cast<u64>(v);
    }
}

void write_unsigned_series(BitWriter& bw, std::span<const u64> vals, u32 len_bits) {
    u64 all = 0;
    for (u64 v : vals) all |= v;
    const u32 maxbits = bits_for(all);  // the widest element's width
    RECOIL_CHECK(maxbits <= (u32{1} << len_bits), "metadata series element too wide");
    bw.put(maxbits - 1, len_bits);
    bw.put_all(vals, maxbits);
}

void read_unsigned_series(BitReader& br, std::span<u64> vals, u32 len_bits) {
    const u32 maxbits = static_cast<u32>(br.get(len_bits)) + 1;
    br.get_all(vals, maxbits);
}

/// Division by the lane count without a divide (Granlund and Montgomery):
/// lanes = odd << shift, and the inverse of odd mod 2^64 turns the quotient
/// of an exact multiple of lanes into one multiply.
struct LaneDivider {
    u32 shift;
    u64 inv;    ///< odd * inv == 1 (mod 2^64)
    u64 limit;  ///< (2^64 - 1) / odd

    explicit LaneDivider(u32 lanes)
        : shift(static_cast<u32>(std::countr_zero(lanes))), inv(lanes >> shift),
          limit(~u64{0} / (lanes >> shift)) {
        const u64 odd = lanes >> shift;
        for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;  // 3 -> 96 correct bits
    }

    /// d / lanes, for d a multiple of lanes.
    u64 exact(u64 d) const noexcept { return (d >> shift) * inv; }
    /// Whether lanes divides d.
    bool divides(u64 d) const noexcept {
        return ((d & ((u64{1} << shift) - 1)) == 0) & ((d >> shift) * inv <= limit);
    }
};

/// validate_metadata's rules, in its order. With check_lanes false the
/// per-lane rules are skipped: states below the bound, lane-aligned
/// indices, and min/anchor equal to the lane extremes, all of which
/// deserialize_metadata's reconstruction satisfies by construction.
void validate(const RecoilMetadata& meta, bool check_lanes) {
    if (meta.lanes == 0) raise("metadata: zero lanes");
    if (meta.final_states.size() != meta.lanes) raise("metadata: final state count");
    if (meta.state_store_bits < 8 || meta.state_store_bits > 31)
        raise("metadata: bad state width");
    const u32 lower_bound_log2 = meta.state_store_bits;
    const SplitTable& t = meta.splits;
    const std::size_t rows = t.size();
    if (t.anchor_index.size() != rows || t.min_index.size() != rows ||
        t.states.size() != rows * meta.lanes || t.indices.size() != rows * meta.lanes)
        raise("metadata: lane array size mismatch");
    const LaneDivider div(meta.lanes);
    i64 prev_anchor = -1;
    u64 prev_offset = 0;
    for (std::size_t k = 0; k < rows; ++k) {
        const SplitRow sp = meta.split(k);
        if (sp.offset >= meta.num_units) raise("metadata: split offset out of range");
        if (k > 0 && sp.offset <= prev_offset) raise("metadata: offsets not increasing");
        if (sp.anchor_index >= meta.num_symbols) raise("metadata: anchor out of range");
        if (static_cast<i64>(sp.min_index) <= prev_anchor)
            raise("metadata: sync section crosses previous anchor");
        if (check_lanes) {
            auto state_ok = [&](u32 l) { return sp.states[l] < (u32{1} << lower_bound_log2); };
            // indices[l] % lanes == l, as l < lanes
            auto index_ok = [&](u32 l) {
                return (sp.indices[l] >= l) & div.divides(sp.indices[l] - l);
            };
            // No call in the loop, so its state stays in registers; a broken
            // rule is named afterwards, the first lane's first rule.
            bool ok = true;
            u64 min_index = std::numeric_limits<u64>::max();
            u64 max_index = 0;
            for (u32 l = 0; l < meta.lanes; ++l) {
                ok &= state_ok(l) & index_ok(l);
                min_index = std::min(min_index, sp.indices[l]);
                max_index = std::max(max_index, sp.indices[l]);
            }
            for (u32 l = 0; !ok; ++l) {
                if (!state_ok(l)) raise("metadata: intermediate state above lower bound");
                if (!index_ok(l)) raise("metadata: lane index misaligned");
            }
            if (min_index != sp.min_index || max_index != sp.anchor_index)
                raise("metadata: min/anchor inconsistent with lane indices");
        }
        prev_anchor = static_cast<i64>(sp.anchor_index);
        prev_offset = sp.offset;
    }
    if (rows > 0 && t.anchor_index.back() + 1 >= meta.num_symbols)
        raise("metadata: last split leaves no symbols for the final thread");
}

void put_u64(std::vector<u8>& out, u64 v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

u64 get_u64(std::span<const u8> in, std::size_t& pos) {
    if (pos + 8 > in.size()) raise("metadata: truncated header");
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= u64{in[pos + i]} << (8 * i);
    pos += 8;
    return v;
}

}  // namespace

std::vector<u8> serialize_metadata(const RecoilMetadata& meta) {
    validate_metadata(meta);
    std::vector<u8> out;
    out.reserve(64 + 4 * meta.lanes +
                meta.splits.size() * (meta.lanes * meta.state_store_bits / 8 + 16));

    // ---- fixed header -----------------------------------------------------
    out.push_back('R');
    out.push_back('C');
    out.push_back('M');
    out.push_back('1');
    out.push_back(static_cast<u8>(meta.lanes));
    out.push_back(static_cast<u8>(meta.state_store_bits));
    out.push_back(0);
    out.push_back(0);
    put_u64(out, meta.num_symbols);
    put_u64(out, meta.num_units);
    put_u64(out, meta.num_splits());
    for (u32 s : meta.final_states) {
        out.push_back(static_cast<u8>(s));
        out.push_back(static_cast<u8>(s >> 8));
        out.push_back(static_cast<u8>(s >> 16));
        out.push_back(static_cast<u8>(s >> 24));
    }

    // ---- bit-packed difference series ------------------------------------
    BitWriter bw(std::move(out));
    const u64 M = meta.num_splits();
    const u64 entries = meta.splits.size();
    if (entries > 0) {
        const u64 expected_unit = ceil_div<u64>(meta.num_units, M);
        const u64 groups = ceil_div<u64>(meta.num_symbols, meta.lanes);
        const u64 expected_group = ceil_div<u64>(groups, M);

        std::vector<i64> off_diffs(entries), grp_diffs(entries);
        for (u64 i = 0; i < entries; ++i) {
            off_diffs[i] = static_cast<i64>(meta.splits.offset[i]) -
                           static_cast<i64>((i + 1) * expected_unit);
            grp_diffs[i] = static_cast<i64>(meta.splits.anchor_index[i] / meta.lanes) -
                           static_cast<i64>((i + 1) * expected_group);
        }
        write_signed_series(bw, off_diffs, kGlobalLenBits);
        write_signed_series(bw, grp_diffs, kGlobalLenBits);

        // Validated: indices[l] = group * lanes + l, so each lane's group is
        // an exact quotient.
        const LaneDivider div(meta.lanes);
        std::vector<u64> lane_diffs(meta.lanes);
        for (u64 i = 0; i < entries; ++i) {
            const SplitRow sp = meta.split(i);
            bw.put_all(sp.states, meta.state_store_bits);
            const u64 anchor_group = sp.anchor_index / meta.lanes;
            for (u32 l = 0; l < meta.lanes; ++l)
                lane_diffs[l] = anchor_group - div.exact(sp.indices[l] - l);
            write_unsigned_series(bw, lane_diffs, kLaneLenBits);
        }
    }
    return bw.finish();
}

RecoilMetadata deserialize_metadata(std::span<const u8> bytes) {
    if (bytes.size() < 8 || bytes[0] != 'R' || bytes[1] != 'C' || bytes[2] != 'M' ||
        bytes[3] != '1')
        raise("metadata: bad magic");
    RecoilMetadata meta;
    meta.lanes = bytes[4];
    meta.state_store_bits = bytes[5];
    if (meta.lanes == 0 || meta.lanes > 128) raise("metadata: bad lane count");
    if (meta.state_store_bits < 8 || meta.state_store_bits > 31)
        raise("metadata: bad state width");
    std::size_t pos = 8;
    meta.num_symbols = get_u64(bytes, pos);
    meta.num_units = get_u64(bytes, pos);
    const u64 M = get_u64(bytes, pos);
    if (M == 0 || M > (u64{1} << 32)) raise("metadata: bad split count");
    if (pos + 4 * meta.lanes > bytes.size()) raise("metadata: truncated final states");
    meta.final_states.resize(meta.lanes);
    for (u32 l = 0; l < meta.lanes; ++l) {
        meta.final_states[l] = static_cast<u32>(bytes[pos]) |
                               (static_cast<u32>(bytes[pos + 1]) << 8) |
                               (static_cast<u32>(bytes[pos + 2]) << 16) |
                               (static_cast<u32>(bytes[pos + 3]) << 24);
        pos += 4;
    }

    const u64 entries = M - 1;
    if (entries > 0) {
        // Every split carries at least its lanes' states, so a count its
        // remaining bits cannot hold fails before any column is sized by it.
        const std::span<const u8> rest = bytes.subspan(pos);
        if (entries * meta.lanes * meta.state_store_bits > 8 * u64{rest.size()})
            raise("metadata: split count exceeds the bytes");
        SplitTable& t = meta.splits;
        t.offset.resize(entries);
        t.anchor_index.resize(entries);
        t.min_index.resize(entries);
        t.states.resize(entries * meta.lanes);
        t.indices.resize(entries * meta.lanes);
        // Each series is unpacked straight into its column. anchor_index
        // holds each split's anchor group until its lanes are read.
        BitReader br(rest);
        const u64 groups = ceil_div<u64>(meta.num_symbols, meta.lanes);
        read_signed_series(br, t.offset, kGlobalLenBits, ceil_div<u64>(meta.num_units, M));
        read_signed_series(br, t.anchor_index, kGlobalLenBits, ceil_div<u64>(groups, M));
        for (u64 i = 0; i < entries; ++i) {
            const u64 grp = t.anchor_index[i];
            const std::span<u64> indices(t.indices.data() + i * meta.lanes, meta.lanes);
            br.get_all(std::span<u32>(t.states.data() + i * meta.lanes, meta.lanes),
                       meta.state_store_bits);
            read_unsigned_series(br, indices, kLaneLenBits);  // anchor group - lane group
            u64 min_index = std::numeric_limits<u64>::max();
            u64 max_index = 0;
            for (u32 l = 0; l < meta.lanes; ++l) {
                if (indices[l] > grp) raise("metadata: negative lane group");
                indices[l] = (grp - indices[l]) * meta.lanes + l;
                min_index = std::min(min_index, indices[l]);
                max_index = std::max(max_index, indices[l]);
            }
            t.anchor_index[i] = max_index;
            t.min_index[i] = min_index;
            if (max_index / meta.lanes != grp) raise("metadata: anchor group mismatch");
        }
    }
    validate(meta, false);  // the per-lane rules hold by construction
    return meta;
}

void validate_metadata(const RecoilMetadata& meta) { validate(meta, true); }

}  // namespace recoil
