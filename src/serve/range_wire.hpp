#pragma once
// Byte-range serving: ship only the split points and bitstream units that
// cover a requested symbol range [lo, hi), so a client fetching a slice of a
// large asset pays wire bytes proportional to the slice, not the asset.
//
// The RCR2 wire is a sequence of SEGMENTS, giving every asset kind uniform
// range semantics:
//  * a static-model RecoilFile is one segment;
//  * an indexed-model RecoilFile is one segment that also carries the model
//    family and the slice of per-symbol model ids the covering splits touch;
//  * a ChunkedStream decomposes into one segment per intersecting chunk,
//    each with that chunk's model and covering splits.
// Each segment is decodable by the unmodified 3-phase split decoder because
//  * symbol indexing stays ABSOLUTE within the segment's stream (the decoder
//    derives lane ids from position % lanes, which rebasing would break), and
//  * unit offsets are rebased to the slice: units append in symbol order
//    (see rans/interleaved.hpp), so every unit the covering splits pop lies
//    in [splits[first-2].offset + 1, splits[last].offset + 1) — bounds
//    computable from metadata alone.
// The shipped metadata is the covering splits plus the preceding boundary
// split (the decoder's phase-2/3 limits), re-encoded with the standard §4.3
// codec against slice-local expectations.

#include <span>
#include <vector>

#include "format/container.hpp"
#include "simd/dispatch.hpp"
#include "stream/chunked.hpp"
#include "util/thread_pool.hpp"

namespace recoil::serve {

/// Parsed per-segment header, for stats and tests. lo/hi/cover are LOCAL to
/// the segment's stream; add `base` for the asset's flat symbol space.
struct RangeSegmentInfo {
    u64 base = 0;                    ///< segment stream's first symbol, absolute
    u64 lo = 0, hi = 0;              ///< requested symbol range (local)
    u64 cover_lo = 0, cover_hi = 0;  ///< symbols the shipped splits produce
    u64 unit_count = 0;              ///< shipped bitstream units
    u32 first_split = 0;             ///< first covering split in the master
    u32 splits_served = 0;           ///< covering split count
    bool has_prev = false;           ///< boundary split entry shipped
    bool includes_final = false;     ///< slice reaches the bitstream end
    bool indexed = false;            ///< segment carries an indexed model family
};

/// Parsed range-wire header, for stats and tests.
struct RangeWireInfo {
    u8 sym_width = 0;
    u64 lo = 0, hi = 0;      ///< requested symbol range, asset-absolute
    u32 splits_served = 0;   ///< total covering splits across segments
    std::vector<RangeSegmentInfo> segments;
};

/// Emit the RCR2 wire for symbols [lo, hi) into `sink` segment by segment:
/// one segment for a RecoilFile (static or indexed model); one per
/// intersecting chunk for a chunked stream, addressed in the stream's flat
/// symbol space. Raises recoil::Error for an out-of-range request.
/// Per-segment structural sections are small owned allocations; unit and
/// id slices are borrowed views of the asset's shared storage. Returns the
/// covering split count.
u32 range_wire_into(const format::RecoilFile& f, u64 lo, u64 hi,
                    format::WireSink& sink);
u32 range_wire_into(const stream::ChunkedStream& s, u64 lo, u64 hi,
                    format::WireSink& sink);

RangeWireInfo inspect_range_wire(std::span<const u8> bytes);

/// Client side: parse, validate and decode, returning exactly the [lo, hi)
/// symbols. The u8/u16 variant must match the wire's sym_width. `backend`
/// selects the range-decode kernel (clamped to what this build/CPU has):
/// the default is the best available; tests and benches pass
/// simd::Backend::Scalar to pin the reference path and prove the vector
/// body bit-exact against it.
std::vector<u8> decode_range_wire(std::span<const u8> bytes,
                                  ThreadPool* pool = nullptr,
                                  simd::Backend backend = simd::pick_backend());
std::vector<u16> decode_range_wire_u16(std::span<const u8> bytes,
                                       ThreadPool* pool = nullptr,
                                       simd::Backend backend = simd::pick_backend());

}  // namespace recoil::serve
