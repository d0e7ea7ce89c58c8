#include "rans/indexed_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace recoil {

namespace {

std::vector<std::vector<u32>> pdfs_of(const std::vector<StaticModel>& models) {
    std::vector<std::vector<u32>> pdfs(models.size());
    for (std::size_t m = 0; m < models.size(); ++m)
        for (u32 s = 0; s < models[m].alphabet(); ++s) pdfs[m].push_back(models[m].freq(s));
    return pdfs;
}

}  // namespace

IndexedModelSet::IndexedModelSet(std::vector<StaticModel> models, std::vector<u8> ids)
    // A model of another prob_bits fails the pdf-sum check.
    : IndexedModelSet(pdfs_of(models), models.empty() ? 0 : models[0].prob_bits(),
                      std::move(ids)) {}

IndexedModelSet::IndexedModelSet(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                                 std::vector<u8> ids)
    : prob_bits_(prob_bits), ids_(std::move(ids)) {
    RECOIL_CHECK(!pdfs.empty(), "IndexedModelSet: no models");
    RECOIL_CHECK(pdfs.size() <= 256, "IndexedModelSet: at most 256 models (8-bit ids)");
    alphabet_ = static_cast<u32>(pdfs[0].size());
    model_count_ = static_cast<u32>(pdfs.size());
    // One max reduction (vectorized) rather than a branch per id.
    u8 max_id = 0;
    for (const u8 id : ids_) max_id = std::max(max_id, id);
    RECOIL_CHECK(max_id < model_count_, "IndexedModelSet: id out of range");

    const u64 slots = u64{1} << prob_bits_;
    for (const auto& pdf : pdfs) {
        RECOIL_CHECK(pdf.size() == alphabet_, "IndexedModelSet: inconsistent models");
        u64 total = 0;
        for (const u32 f : pdf) total += f;
        RECOIL_CHECK(total == slots, "pdf does not sum to 2^prob_bits");
    }
    // Every slot of every model is written exactly once, so the tables are
    // appended rather than zero-filled first.
    fc_.reserve(slots * model_count_);
    sym_.reserve(slots * model_count_);
    fast_.reserve(u64{alphabet_} * model_count_);
    for (u32 m = 0; m < model_count_; ++m) {
        u32 cum = 0;
        for (u32 s = 0; s < alphabet_; ++s) {
            const u32 f = pdfs[m][s];
            fc_.insert(fc_.end(), f, ((f - 1) << 16) | cum);
            sym_.insert(sym_.end(), f, s);
            fast_.push_back(EncSymbolFast::make(f, cum, prob_bits_));
            cum += f;
        }
    }
}

}  // namespace recoil
