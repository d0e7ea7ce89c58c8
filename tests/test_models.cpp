#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "rans/indexed_model.hpp"
#include "rans/static_model.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace recoil {
namespace {

TEST(StaticModel, LookupInvariants) {
    std::vector<u64> counts(256, 0);
    counts['a'] = 70;
    counts['b'] = 20;
    counts['c'] = 10;
    StaticModel m(counts, 11);
    // Every slot decodes to the symbol whose [cum, cum+freq) contains it.
    for (u32 slot = 0; slot < (1u << 11); ++slot) {
        DecSymbol d = m.tables().lookup(0, slot);
        EXPECT_LE(m.cum(d.sym), slot);
        EXPECT_LT(slot, m.cum(d.sym) + m.freq(d.sym));
        EXPECT_EQ(d.freq, m.freq(d.sym));
        EXPECT_EQ(d.cum, m.cum(d.sym));
    }
}

TEST(StaticModel, EncDecConsistent) {
    auto syms = test::geometric_symbols<u8>(5000, 0.8, 256, 7);
    auto m = test::model_for<u8>(syms, 12, 256);
    for (u32 s = 0; s < 256; ++s) {
        if (m.freq(s) == 0) continue;
        EncSymbol e = m.enc_lookup(0, s);
        DecSymbol d = m.tables().lookup(0, e.cum);
        EXPECT_EQ(d.sym, s);
    }
}

TEST(StaticModel, PackedLutOnlyWhenApplicable) {
    std::vector<u64> small(256, 1);
    EXPECT_NE(StaticModel(small, 12).tables().packed, nullptr);
    EXPECT_EQ(StaticModel(small, 13).tables().packed, nullptr);
    std::vector<u64> wide(4096, 1);
    EXPECT_EQ(StaticModel(wide, 12).tables().packed, nullptr);
}

TEST(StaticModel, PackedLutAgreesWithWide) {
    auto syms = test::geometric_symbols<u8>(3000, 0.5, 256, 11);
    auto m = test::model_for<u8>(syms, 11, 256);
    const DecodeTables t = m.tables();
    ASSERT_NE(t.packed, nullptr);
    for (u32 slot = 0; slot < (1u << 11); ++slot) {
        const u32 p = t.packed[slot];
        DecSymbol d = t.lookup(0, slot);
        EXPECT_EQ(p & 0xffu, d.sym);
        EXPECT_EQ((p >> 8) & 0xfffu, d.cum);
        EXPECT_EQ((p >> 20) + 1, d.freq);
    }
}

TEST(StaticModel, CrossEntropyMatchesIdealForUniform) {
    std::vector<u64> counts(16, 100);
    StaticModel m(counts, 8);
    const double bits = m.cross_entropy_bits(counts);
    EXPECT_NEAR(bits, 1600 * 4.0, 1e-6);  // 16 equiprobable symbols = 4 bits
}

TEST(IndexedModel, SelectsPerIndex) {
    // Model 0 strongly favors symbol 0; model 1 favors symbol 1.
    std::vector<u64> c0(4, 1), c1(4, 1);
    c0[0] = 1000;
    c1[1] = 1000;
    std::vector<StaticModel> models{StaticModel(c0, 8), StaticModel(c1, 8)};
    std::vector<u8> ids{0, 1, 0, 1};
    IndexedModelSet set(std::move(models), ids);
    EXPECT_GT(set.enc_fast(0, 0).freq, set.enc_fast(1, 0).freq);
    EXPECT_GT(set.enc_fast(1, 1).freq, set.enc_fast(0, 1).freq);
    // Decode table dispatches on the index too.
    DecSymbol d0 = set.tables().lookup(0, 10);
    EXPECT_EQ(d0.sym, 0u);
    DecSymbol d1 = set.tables().lookup(1, 10);
    EXPECT_EQ(d1.sym, 1u);
}

TEST(IndexedModel, RejectsMismatchedModels) {
    std::vector<u64> a(4, 1), b(8, 1);
    std::vector<StaticModel> models;
    models.emplace_back(a, 8);
    models.emplace_back(b, 8);
    EXPECT_THROW((IndexedModelSet(std::move(models), std::vector<u8>{0})), Error);
}

TEST(IndexedModel, RejectsOutOfRangeIds) {
    std::vector<u64> a(4, 1);
    std::vector<StaticModel> models;
    models.emplace_back(a, 8);
    EXPECT_THROW((IndexedModelSet(std::move(models), std::vector<u8>{1})), Error);
}

TEST(IndexedModel, PdfTablesEqualStaticModelTables) {
    // The pdf constructor fills the combined tables itself; they must equal,
    // byte for byte, the per-model tables of StaticModels built from the
    // same pdfs (what the set used to copy), encode entries included.
    const u32 n = 12;
    const u32 alphabet = 300;
    std::vector<std::vector<u32>> pdfs;
    std::vector<StaticModel> models;
    for (u32 m = 0; m < 5; ++m) {
        std::vector<u64> counts(alphabet);
        for (u32 s = 0; s < alphabet; ++s)
            counts[s] = (s % 7 == m) ? 0 : 1 + (u64{s} * 2654435761u + m) % 977;
        models.emplace_back(counts, n);
        std::vector<u32> pdf;
        for (u32 s = 0; s < alphabet; ++s) pdf.push_back(models.back().freq(s));
        pdfs.push_back(std::move(pdf));
    }
    std::vector<u8> ids(1000);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<u8>(i % 5);
    const IndexedModelSet set(std::span<const std::vector<u32>>(pdfs), n, ids);
    const DecodeTables t = set.tables();
    for (u32 m = 0; m < 5; ++m) {
        const DecodeTables ref = models[m].tables();
        const std::size_t slots = std::size_t{1} << n;
        EXPECT_EQ(std::memcmp(t.fc + m * slots, ref.fc, slots * 4), 0) << m;
        EXPECT_EQ(std::memcmp(t.sym + m * slots, ref.sym, slots * 4), 0) << m;
        const u64 at = m;  // ids[at] == m
        for (u32 s = 0; s < alphabet; ++s) {
            EXPECT_EQ(std::memcmp(&set.enc_fast(at, s), &models[m].enc_fast(0, s),
                                  sizeof(EncSymbolFast)),
                      0)
                << m << " " << s;
        }
    }
    // The StaticModel constructor builds the very same set.
    const IndexedModelSet from_models(models, ids);
    EXPECT_EQ(std::memcmp(from_models.tables().fc, t.fc, (std::size_t{5} << n) * 4), 0);
    EXPECT_EQ(std::memcmp(from_models.tables().sym, t.sym, (std::size_t{5} << n) * 4), 0);

    // The decode-only model builds the same tables: the family's slot for
    // slot, and one pdf's as StaticModel builds them, packed table included.
    const DecodeModel family(pdfs, n, ids);
    const DecodeTables d = family.tables(ids.data());
    EXPECT_EQ(d.ids, ids.data());
    EXPECT_EQ(d.packed, nullptr);
    for (std::size_t i = 0; i < (std::size_t{5} << n); ++i) {
        EXPECT_EQ(d.fc[i], t.fc[i]) << i;
        EXPECT_EQ(d.sym[i], t.sym[i]) << i;
    }
    std::vector<u64> counts(256);
    for (u32 s = 0; s < 256; ++s) counts[s] = 1 + s % 13;
    const StaticModel packable(counts, n);  // 256 symbols at n = 12
    ASSERT_NE(packable.tables().packed, nullptr);
    for (const StaticModel* model : {&std::as_const(models[0]), &packable}) {
        std::vector<std::vector<u32>> pdf(1);
        for (u32 s = 0; s < model->alphabet(); ++s) pdf[0].push_back(model->freq(s));
        const DecodeModel single(pdf, n);
        const DecodeTables st = single.tables();
        const DecodeTables ref = model->tables();
        EXPECT_EQ(st.ids, nullptr);
        ASSERT_EQ(st.packed == nullptr, ref.packed == nullptr) << model->alphabet();
        for (std::size_t slot = 0; slot < (std::size_t{1} << n); ++slot) {
            EXPECT_EQ(st.fc[slot], ref.fc[slot]) << slot;
            EXPECT_EQ(st.sym[slot], ref.sym[slot]) << slot;
            if (ref.packed != nullptr) {
                EXPECT_EQ(st.packed[slot], ref.packed[slot]) << slot;
            }
        }
        // Never a packed table beside ids.
        EXPECT_EQ(single.tables(ids.data()).packed, nullptr);
    }

    ids.back() = 5;
    EXPECT_THROW(IndexedModelSet(std::span<const std::vector<u32>>(pdfs), n, ids), Error);
    EXPECT_THROW(DecodeModel(pdfs, n, ids), Error);
    pdfs[2][0] += 1;
    ids.back() = 0;
    EXPECT_THROW(IndexedModelSet(std::span<const std::vector<u32>>(pdfs), n, ids), Error);
    EXPECT_THROW(DecodeModel(pdfs, n), Error);
}

}  // namespace
}  // namespace recoil
