#pragma once
// Recoil encoding (§3–4): encode once with a single group of interleaved
// rANS coders, recording renormalization events, then plan split points and
// build the metadata that enables decoder-adaptive parallel decoding. The
// bitstream is byte-identical to a plain interleaved rANS bitstream — Recoil
// only adds detachable metadata.

#include <span>

#include "core/metadata.hpp"
#include "core/split_planner.hpp"
#include "rans/interleaved.hpp"

namespace recoil {

template <typename Cfg = Rans32, u32 NLanes = kLanes>
struct RecoilEncoded {
    InterleavedBitstream<Cfg, NLanes> bitstream;
    RecoilMetadata metadata;
};

/// Encode `syms` and prepare metadata for up to `max_splits`-way parallel
/// decoding. The content server calls this once with the largest parallelism
/// it intends to support and later serves combined (smaller) metadata to
/// less-parallel decoders via combine_splits().
template <typename Cfg = Rans32, u32 NLanes = kLanes, typename TSym, typename Model>
RecoilEncoded<Cfg, NLanes> recoil_encode(std::span<const TSym> syms, const Model& model,
                                         u32 max_splits) {
    RecoilEncoded<Cfg, NLanes> out;
    // Streaming planner: split points are chosen while encoding, so the
    // renormalization events are never materialized.
    OnlinePlanner planner(syms.size(), max_splits, NLanes);
    out.bitstream = interleaved_encode<Cfg, NLanes>(syms, model, &planner);

    RecoilMetadata& meta = out.metadata;
    meta.lanes = NLanes;
    meta.state_store_bits = Cfg::lower_bound_log2;
    meta.num_symbols = out.bitstream.num_symbols;
    meta.num_units = out.bitstream.units.size();
    meta.final_states.assign(out.bitstream.final_states.begin(),
                             out.bitstream.final_states.end());
    meta.splits = planner.finish();
    return out;
}

}  // namespace recoil
