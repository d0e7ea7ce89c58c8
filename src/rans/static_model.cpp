#include "rans/static_model.hpp"

#include <algorithm>
#include <cmath>

#include "rans/symbol_stats.hpp"
#include "util/error.hpp"

namespace recoil {

DecodeModel::DecodeModel(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                         std::span<const u8> ids)
    : prob_bits_(prob_bits), model_count_(static_cast<u32>(pdfs.size())) {
    RECOIL_CHECK(!pdfs.empty(), "DecodeModel: no models");
    RECOIL_CHECK(pdfs.size() <= 256, "DecodeModel: at most 256 models (8-bit ids)");
    // One max reduction (vectorized) rather than a branch per id, before the
    // fill evicts the ids from cache.
    u8 max_id = 0;
    for (const u8 id : ids) max_id = std::max(max_id, id);
    RECOIL_CHECK(max_id < model_count_, "DecodeModel: id out of range");

    const auto alphabet = static_cast<u32>(pdfs[0].size());
    const u64 slots = u64{1} << prob_bits;
    for (const auto& pdf : pdfs) {
        RECOIL_CHECK(pdf.size() == alphabet, "DecodeModel: inconsistent models");
        u64 total = 0;
        for (const u32 f : pdf) total += f;
        RECOIL_CHECK(total == slots, "pdf does not sum to 2^prob_bits");
    }
    const auto fc = [](u32 f, u32 cum) { return ((f - 1) << 16) | cum; };
    if (model_count_ > 1) {
        // Every slot of every model is written exactly once, so the tables
        // are appended rather than zero-filled first.
        fc_.reserve(slots * model_count_);
        sym_.reserve(slots * model_count_);
        for (const auto& pdf : pdfs) {
            u32 cum = 0;
            for (u32 s = 0; s < alphabet; ++s) {
                const u32 f = pdf[s];
                fc_.insert(fc_.end(), f, fc(f, cum));
                sym_.insert(sym_.end(), f, s);
                cum += f;
            }
        }
        return;
    }
    // One pdf: size the tables, then write each symbol's slots through local
    // pointers (the same loop through the member vectors measured about
    // half as fast; appending to three tables is slower still).
    const bool packable = alphabet <= 256 && prob_bits <= 12;
    fc_.resize(slots);
    sym_.resize(slots);
    if (packable) packed_.resize(slots);
    const u32* const freq = pdfs[0].data();
    u32* const fc_out = fc_.data();
    u32* const sym_out = sym_.data();
    u32* const packed_out = packed_.data();
    u32 cum = 0;
    for (u32 s = 0; s < alphabet; ++s) {
        const u32 f = freq[s];
        for (u32 slot = cum; slot < cum + f; ++slot) {
            fc_out[slot] = fc(f, cum);
            sym_out[slot] = s;
            if (packable) packed_out[slot] = ((f - 1) << 20) | (cum << 8) | s;
        }
        cum += f;
    }
}

StaticModel::StaticModel(std::span<const u64> counts, u32 prob_bits)
    : prob_bits_(prob_bits),
      freq_(quantize_pdf(counts, prob_bits)),
      cum_(cumulative(freq_)),
      decode_({&freq_, 1}, prob_bits) {
    build_fast();
}

StaticModel::StaticModel(std::span<const u32> freq, u32 prob_bits, int)
    : prob_bits_(prob_bits),
      freq_(freq.begin(), freq.end()),
      cum_(cumulative(freq_)),
      decode_({&freq_, 1}, prob_bits) {  // checks the pdf's sum
    build_fast();
}

void StaticModel::build_fast() {
    fast_.resize(alphabet());
    for (u32 s = 0; s < alphabet(); ++s) {
        fast_[s] = EncSymbolFast::make(freq_[s], cum_[s], prob_bits_);
    }
}

double StaticModel::cross_entropy_bits(std::span<const u64> counts) const {
    double bits = 0;
    const double n = static_cast<double>(prob_bits_);
    for (u32 s = 0; s < counts.size() && s < alphabet(); ++s) {
        if (counts[s] == 0) continue;
        RECOIL_CHECK(freq_[s] > 0, "cross_entropy_bits: symbol with zero frequency present");
        bits += static_cast<double>(counts[s]) *
                (n - std::log2(static_cast<double>(freq_[s])));
    }
    return bits;
}

}  // namespace recoil
