#pragma once
// In-memory representation of Recoil split metadata (§3.1, §4.1). The
// metadata is deliberately independent of the rANS bitstream: combining
// splits (§3.3) only rewrites this structure, never the bitstream.

#include <vector>

#include "util/ints.hpp"

namespace recoil {

/// One split point: everything a decoder thread needs to start decoding at
/// an intermediate position of the interleaved bitstream.
struct SplitPoint {
    u64 offset = 0;        ///< unit index of the anchor's renormalization output
    u64 anchor_index = 0;  ///< max recorded symbol index ("Max Symbol Group ID")
    u64 min_index = 0;     ///< min recorded symbol index (sync completion point)
    std::vector<u32> states;   ///< per-lane post-renorm state, < lower bound
    std::vector<u64> indices;  ///< per-lane recorded symbol index

    u64 sync_symbols() const noexcept { return anchor_index - min_index + 1; }
};

/// Full metadata for one Recoil-encoded stream. `splits` holds the M-1
/// interior split points in ascending anchor order; the final "split" always
/// starts from `final_states` at the end of the bitstream, so M splits need
/// only M-1 metadata entries.
struct RecoilMetadata {
    u32 lanes = 0;
    u32 state_store_bits = 0;  ///< bits per stored intermediate state (= log2 L)
    u64 num_symbols = 0;
    u64 num_units = 0;         ///< bitstream length in renormalization units
    std::vector<u32> final_states;  ///< lanes entries, stored as-is (32-bit)
    std::vector<SplitPoint> splits;

    u32 num_splits() const noexcept { return static_cast<u32>(splits.size()) + 1; }
};

/// Decode-side synchronization statistics, reported by recoil_decode_into.
struct RecoilDecodeStats {
    u64 sync_symbols = 0;      ///< discarded synchronization-phase decodes
    u64 cross_symbols = 0;     ///< cross-boundary phase decodes
    u64 skipped_positions = 0; ///< sync-phase positions with uninitialized lane
};

}  // namespace recoil
