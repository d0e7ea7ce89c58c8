#pragma once
// Indexed (adaptive) model set: a family of quantized distributions plus a
// per-symbol-index model id. This is the hyperprior use case of §3.1: the
// distribution used at each position is selected by the symbol index, which
// is why Recoil metadata stores symbol indices at split points.

#include <span>
#include <vector>

#include "rans/static_model.hpp"

namespace recoil {

class IndexedModelSet {
public:
    /// All models must share prob_bits and alphabet size. `ids[i]` selects
    /// the model for symbol index i; ids.size() must cover the input length.
    IndexedModelSet(std::vector<StaticModel> models, std::vector<u8> ids);
    /// The same set built straight from quantized pdfs (each summing to
    /// 2^prob_bits, all of one alphabet size), without a StaticModel per pdf:
    /// the decode path's rebuild.
    IndexedModelSet(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                    std::vector<u8> ids);

    u32 prob_bits() const noexcept { return prob_bits_; }
    u32 alphabet() const noexcept { return alphabet_; }
    u32 model_count() const noexcept { return model_count_; }
    std::span<const u8> ids() const noexcept { return ids_; }

    /// Division-free encode entry for the model selected at `sym_index`.
    const EncSymbolFast& enc_fast(u64 sym_index, u32 sym) const noexcept {
        return fast_[u64{ids_[sym_index]} * alphabet_ + sym];
    }

    DecSymbol dec_lookup(u64 sym_index, u32 slot) const noexcept {
        return tables().lookup(sym_index, slot);
    }

    DecodeTables tables() const noexcept {
        DecodeTables t;
        t.fc = fc_.data();
        t.sym = sym_.data();
        t.ids = ids_.data();
        t.prob_bits = prob_bits_;
        return t;
    }

private:
    u32 prob_bits_;
    u32 alphabet_;
    u32 model_count_;
    std::vector<u8> ids_;
    // Contiguous per-model tables so SIMD decoders can gather with index
    // (id << prob_bits) | slot.
    std::vector<u32> fc_;
    std::vector<u32> sym_;
    std::vector<EncSymbolFast> fast_;  // alphabet stride per model
};

}  // namespace recoil
