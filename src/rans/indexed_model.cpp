#include "rans/indexed_model.hpp"

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
    : prob_bits_(prob_bits), ids_(std::move(ids)), decode_(pdfs, prob_bits, ids_) {
    alphabet_ = static_cast<u32>(pdfs[0].size());
    fast_.reserve(u64{alphabet_} * pdfs.size());
    for (const auto& pdf : pdfs) {
        u32 cum = 0;
        for (const u32 f : pdf) {
            fast_.push_back(EncSymbolFast::make(f, cum, prob_bits));
            cum += f;
        }
    }
}

}  // namespace recoil
