#pragma once
// In-memory representation of Recoil split metadata (§3.1, §4.1). The
// metadata is deliberately independent of the rANS bitstream: combining
// splits (§3.3) only rewrites this structure, never the bitstream.
//
// The interior split points are one table of five columns (SplitTable):
// `offset`, `anchor_index` and `min_index` hold one entry per split, and
// `states` and `indices` hold `lanes` entries per split, row-major. Each
// column is one allocation at any split count, so a parse sizes them once
// and a combine gathers rows into them. Readers take one split at a time
// as a SplitRow, a view of its row (RecoilMetadata::split).

#include <span>
#include <vector>

#include "util/ints.hpp"

namespace recoil {

/// One split point, viewed in place: everything a decoder thread needs to
/// start decoding at an intermediate position of the interleaved bitstream.
struct SplitRow {
    u64 offset = 0;        ///< unit index of the anchor's renormalization output
    u64 anchor_index = 0;  ///< max recorded symbol index ("Max Symbol Group ID")
    u64 min_index = 0;     ///< min recorded symbol index (sync completion point)
    std::span<const u32> states;   ///< per-lane post-renorm state, < lower bound
    std::span<const u64> indices;  ///< per-lane recorded symbol index

    u64 sync_symbols() const noexcept { return anchor_index - min_index + 1; }
};

/// The interior split points of one stream, in ascending anchor order, as
/// columns (see the header comment). validate_metadata checks that the
/// columns agree in length.
struct SplitTable {
    std::vector<u64> offset;
    std::vector<u64> anchor_index;
    std::vector<u64> min_index;
    std::vector<u32> states;   ///< lanes per split, row-major
    std::vector<u64> indices;  ///< lanes per split, row-major

    std::size_t size() const noexcept { return offset.size(); }
    bool empty() const noexcept { return offset.empty(); }

    void clear() noexcept {
        offset.clear();
        anchor_index.clear();
        min_index.clear();
        states.clear();
        indices.clear();
    }

    /// Room for `rows` splits of `lanes` lanes: one allocation per column.
    void reserve(std::size_t rows, u32 lanes) {
        offset.reserve(rows);
        anchor_index.reserve(rows);
        min_index.reserve(rows);
        states.reserve(rows * lanes);
        indices.reserve(rows * lanes);
    }

    /// Append a copy of `row`, which must not view this table.
    void push_back(const SplitRow& row) {
        offset.push_back(row.offset);
        anchor_index.push_back(row.anchor_index);
        min_index.push_back(row.min_index);
        states.insert(states.end(), row.states.begin(), row.states.end());
        indices.insert(indices.end(), row.indices.begin(), row.indices.end());
    }
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
    SplitTable splits;

    u32 num_splits() const noexcept { return static_cast<u32>(splits.size()) + 1; }

    /// Interior split k's row (k < splits.size()).
    SplitRow split(std::size_t k) const noexcept {
        return {splits.offset[k], splits.anchor_index[k], splits.min_index[k],
                std::span<const u32>(splits.states).subspan(k * lanes, lanes),
                std::span<const u64>(splits.indices).subspan(k * lanes, lanes)};
    }
};

/// Decode-side synchronization statistics, reported by recoil_decode_into.
struct RecoilDecodeStats {
    u64 sync_symbols = 0;      ///< discarded synchronization-phase decodes
    u64 cross_symbols = 0;     ///< cross-boundary phase decodes
    u64 skipped_positions = 0; ///< sync-phase positions with uninitialized lane
};

}  // namespace recoil
