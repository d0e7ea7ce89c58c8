#pragma once
// Serialized form of Recoil metadata (§4.3). Only differences from
// expectations are stored:
//  * header: M, B (units), N (symbols), lanes, state width, final states;
//  * one signed difference series for all bitstream offsets vs i*ceil(B/M);
//  * one signed difference series for all anchor groups vs i*ceil(G/M);
//  * per split: lane states raw (log2 L bits each) plus one unsigned
//    difference series of (anchor group - lane group), sign bits dropped
//    because the anchor is the maximum.
// Each series is prefixed by a (bit-length - 1) field: 4 bits for the lane
// group series (<= 16-bit values), 5 bits for the global series (<= 32-bit
// values), exactly as in the paper's worked example (Tables 1-2).

#include <span>
#include <vector>

#include "core/metadata.hpp"

namespace recoil {

/// The fewest bytes serialized metadata can take: its 32-byte header and
/// one lane's final state.
inline constexpr std::size_t kMinMetadataBytes = 36;

/// Serialize metadata to bytes. Throws recoil::Error if a difference exceeds
/// the representable width (only possible on pathological inputs).
std::vector<u8> serialize_metadata(const RecoilMetadata& meta);

/// Parse and validate serialized metadata. Validation enforces the decoder's
/// preconditions: ascending offsets/anchors, min_index above the previous
/// anchor, states below the lower bound, offsets within the bitstream.
RecoilMetadata deserialize_metadata(std::span<const u8> bytes);

/// Validate an in-memory metadata object (same checks as deserialize).
void validate_metadata(const RecoilMetadata& meta);

}  // namespace recoil
