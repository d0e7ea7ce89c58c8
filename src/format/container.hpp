#pragma once
// On-disk/wire container for Recoil streams: model payload + detachable
// metadata + bitstream, with an integrity checksum. This is the format the
// CLI example and the content-delivery example exchange; the §3.3 serving
// path (combine splits, re-serialize metadata, keep the bitstream) operates
// directly on it.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/metadata.hpp"
#include "core/recoil_encoder.hpp"
#include "format/wire_io.hpp"
#include "rans/indexed_model.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace recoil::format {

struct RecoilFile {
    u8 sym_width = 1;  ///< 1 or 2 bytes per symbol
    u32 prob_bits = 0;
    /// Model payload: a single static PDF or an indexed family + ids. The id
    /// stream shares storage on copy and may be a zero-copy view into a
    /// mapped container (see load_recoil_file_view).
    struct StaticPayload {
        std::vector<u32> freq;
    };
    struct IndexedPayload {
        std::vector<std::vector<u32>> freqs;
        ByteBuffer ids;
    };
    std::variant<StaticPayload, IndexedPayload> model;
    RecoilMetadata metadata;
    /// Bitstream units: shared on copy, possibly a borrowed view of a
    /// mapped container file (the dominant payload, so the zero-copy parse
    /// path exists for its sake).
    UnitBuffer units;

    /// Rebuild the model objects, encode tables included (decode_file needs
    /// neither: it builds decode-only tables from the pdfs).
    StaticModel build_static_model() const;
    IndexedModelSet build_indexed_model() const;
    bool is_indexed() const noexcept {
        return std::holds_alternative<IndexedPayload>(model);
    }
};

/// Serialize/parse. Parsing validates structure, metadata invariants (an
/// indexed payload's id stream covers every symbol) and the checksum;
/// corrupt input raises recoil::Error. save writes container
/// version 2 (unit payload padded to an even offset); load accepts v1 too.
std::vector<u8> save_recoil_file(const RecoilFile& f);
/// Serialize `f`'s model and bitstream with `metadata` substituted — the
/// §3.3 serving path's shape (combine metadata, keep everything else)
/// without deep-copying the file first. A thin adapter over
/// save_recoil_file_into (one producer implementation, two framings).
std::vector<u8> save_recoil_file(const RecoilFile& f,
                                 const RecoilMetadata& metadata);
/// Streaming producer: emit the container into `sink` piece by piece, in
/// wire order and bit-exact with save_recoil_file. Structural sections are
/// small owned allocations; the id stream and bitstream are borrowed views
/// of `f`'s shared storage (never copied), so peak producer memory is
/// O(metadata), not O(wire).
void save_recoil_file_into(const RecoilFile& f, const RecoilMetadata& metadata,
                           WireSink& sink);
RecoilFile load_recoil_file(std::span<const u8> bytes);

/// Parse `bytes` without copying the bitstream or id stream: the returned
/// file's `units`/`ids` are views into `bytes`, and `keeper` (which must own
/// the storage behind `bytes`, e.g. a serve::MappedFile) is retained by
/// those views. Misaligned unit payloads (v1 containers at an odd offset)
/// fall back to an owned copy. `checksum_verified` true skips re-hashing
/// when the caller already validated these exact bytes (a store manifest
/// checksum); structural validation always runs.
RecoilFile load_recoil_file_view(std::span<const u8> bytes,
                                 std::shared_ptr<const void> keeper,
                                 bool checksum_verified = false);

/// Decode a parsed container into its bytes: one byte per symbol at
/// sym_width 1, two little-endian bytes per symbol at sym_width 2 (as
/// serve::decode_range_wire). Static and indexed payloads alike: the tables
/// come from the payload's pdfs (DecodeModel) and the payload's ids are
/// borrowed, not copied. An id stream shorter than the symbol stream or an
/// id past the model count raises recoil::Error. A `backend` this build or
/// CPU lacks falls back to the next best (simd::group_kernel).
std::vector<u8> decode_file(const RecoilFile& f, ThreadPool* pool = nullptr,
                            simd::Backend backend = simd::pick_backend());

/// Exact byte count save_recoil_file would produce, without materializing
/// the O(bitstream) buffer (only the metadata is encoded to measure it).
u64 serialized_file_size(const RecoilFile& f);

/// Convenience builders for the common encode paths.
template <typename Model>
RecoilFile make_recoil_file(const RecoilEncoded<Rans32, 32>& enc, const Model& model,
                            u8 sym_width);

}  // namespace recoil::format
