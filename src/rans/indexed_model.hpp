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
    /// 2^prob_bits, all of one alphabet size), without a StaticModel per pdf.
    /// A decoder needs only the tables: DecodeModel builds them alone.
    IndexedModelSet(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                    std::vector<u8> ids);

    u32 prob_bits() const noexcept { return prob_bits_; }
    u32 alphabet() const noexcept { return alphabet_; }
    u32 model_count() const noexcept { return decode_.model_count(); }
    std::span<const u8> ids() const noexcept { return ids_; }

    /// Division-free encode entry for the model selected at `sym_index`.
    const EncSymbolFast& enc_fast(u64 sym_index, u32 sym) const noexcept {
        return fast_[u64{ids_[sym_index]} * alphabet_ + sym];
    }

    DecodeTables tables() const noexcept { return decode_.tables(ids_.data()); }

private:
    u32 prob_bits_;
    u32 alphabet_;
    std::vector<u8> ids_;
    DecodeModel decode_;               // validates the pdfs and ids_
    std::vector<EncSymbolFast> fast_;  // alphabet stride per model
};

}  // namespace recoil
