// Serialization tests for the §4.3 metadata codec: exact round-trip,
// compactness, and corruption rejection (failure injection).

#include <gtest/gtest.h>

#include "core/metadata_codec.hpp"
#include "core/recoil_encoder.hpp"
#include "format/wire_io.hpp"
#include "test_util.hpp"

namespace recoil {
namespace {

RecoilMetadata make_meta(std::size_t n, double q, u32 max_splits) {
    auto syms = test::geometric_symbols<u8>(n, q, 256, max_splits * 7 + 1);
    auto m = test::model_for<u8>(syms, 11, 256);
    return recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, max_splits).metadata;
}

void expect_equal(const RecoilMetadata& a, const RecoilMetadata& b) {
    EXPECT_EQ(a.lanes, b.lanes);
    EXPECT_EQ(a.state_store_bits, b.state_store_bits);
    EXPECT_EQ(a.num_symbols, b.num_symbols);
    EXPECT_EQ(a.num_units, b.num_units);
    EXPECT_EQ(a.final_states, b.final_states);
    EXPECT_EQ(a.splits.offset, b.splits.offset);
    EXPECT_EQ(a.splits.anchor_index, b.splits.anchor_index);
    EXPECT_EQ(a.splits.min_index, b.splits.min_index);
    EXPECT_EQ(a.splits.states, b.splits.states);
    EXPECT_EQ(a.splits.indices, b.splits.indices);
}

TEST(MetadataCodec, RoundTripExact) {
    for (u32 max_splits : {1u, 2u, 16u, 128u}) {
        auto meta = make_meta(300000, 0.6, max_splits);
        auto bytes = serialize_metadata(meta);
        auto back = deserialize_metadata(bytes);
        expect_equal(meta, back);
    }
}

TEST(MetadataCodec, WritesTheGoldenBytes) {
    // The codec's bytes are the wire format: any change to how it packs must
    // write exactly these. Size and FNV-1a digest of serialize_metadata for
    // a seeded encode cut to exactly 16 and 2,176 splits (16-bit units,
    // 16-bit states; S - 1 of its split points, evenly spread), and of a 64-split
    // encode of byte units (23-bit states), recorded from the
    // one-field-at-a-time packer; each must also parse back to its source
    // and reserialize to the same bytes.
    const auto syms = test::geometric_symbols<u8>(800000, 0.6, 256, 2176);
    const auto m = test::model_for<u8>(syms, 11, 256);
    struct Golden {
        RecoilMetadata meta;
        std::size_t size;
        u64 digest;
    };
    const RecoilMetadata full =
        recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 2400).metadata;
    const Golden golden[] = {
        {test::with_splits(full, 16), 1374, 53582791848828902ull},
        {test::with_splits(full, 2176), 177419, 8390972732955904841ull},
        {recoil_encode<Rans32x8, 32>(std::span<const u8>(syms), m, 64).metadata, 6799,
         17242900648814122974ull},
    };
    for (const Golden& g : golden) {
        const u32 S = g.meta.num_splits();
        const auto bytes = serialize_metadata(g.meta);
        EXPECT_EQ(bytes.size(), g.size) << S << " splits";
        EXPECT_EQ(format::fnv1a(bytes), g.digest) << S << " splits";
        const RecoilMetadata back = deserialize_metadata(bytes);
        expect_equal(g.meta, back);
        EXPECT_EQ(serialize_metadata(back), bytes) << S << " splits";
    }
    EXPECT_EQ(golden[0].meta.num_splits(), 16u);
    EXPECT_EQ(golden[1].meta.num_splits(), 2176u);
}

TEST(MetadataCodec, RoundTripSkewedData) {
    auto meta = make_meta(300000, 0.03, 32);
    auto back = deserialize_metadata(serialize_metadata(meta));
    expect_equal(meta, back);
}

TEST(MetadataCodec, CompactPerSplitCost) {
    // Paper §5.2: Recoil Large metadata is ~77 bytes/split at 32 lanes
    // (64B states + small difference series). Allow some slack.
    auto meta = make_meta(2000000, 0.6, 256);
    ASSERT_GE(meta.splits.size(), 200u);
    auto bytes = serialize_metadata(meta);
    const double fixed = 8.0 + 24 + 32 * 4;  // magic+header+final states
    const double per_split =
        (static_cast<double>(bytes.size()) - fixed) / static_cast<double>(meta.splits.size());
    EXPECT_LT(per_split, 90.0);
    EXPECT_GT(per_split, 64.0);  // at least the raw states
}

TEST(MetadataCodec, CombinedMetadataShrinksProportionally) {
    auto meta = make_meta(2000000, 0.6, 256);
    auto large = serialize_metadata(meta);
    auto small = serialize_metadata(combine_splits(meta, 16));
    EXPECT_LT(small.size() * 10, large.size());
}

TEST(MetadataCodec, BadMagicRejected) {
    auto meta = make_meta(50000, 0.5, 8);
    auto bytes = serialize_metadata(meta);
    bytes[0] = 'X';
    EXPECT_THROW(deserialize_metadata(bytes), Error);
}

TEST(MetadataCodec, TruncationRejected) {
    auto meta = make_meta(50000, 0.5, 8);
    auto bytes = serialize_metadata(meta);
    for (std::size_t cut : {std::size_t{4}, std::size_t{20}, bytes.size() - 5}) {
        std::vector<u8> t(bytes.begin(), bytes.begin() + cut);
        EXPECT_THROW(deserialize_metadata(t), Error) << "cut=" << cut;
    }
}

TEST(MetadataCodec, ValidateRejectsBrokenInvariants) {
    auto meta = make_meta(100000, 0.5, 8);
    ASSERT_GE(meta.splits.size(), 2u);
    {
        auto bad = meta;
        bad.splits.offset[1] = bad.splits.offset[0];  // non-increasing offsets
        EXPECT_THROW(validate_metadata(bad), Error);
    }
    {
        auto bad = meta;
        bad.splits.states[3] = Rans32::lower_bound;  // split 0's lane 3 above bound
        EXPECT_THROW(validate_metadata(bad), Error);
    }
    {
        auto bad = meta;
        bad.splits.min_index[1] = bad.splits.anchor_index[0];  // crossing sync
        EXPECT_THROW(validate_metadata(bad), Error);
    }
    {
        auto bad = meta;
        bad.splits.indices[5] += 1;  // split 0's lane 5 misaligned
        EXPECT_THROW(validate_metadata(bad), Error);
    }
    {
        auto bad = meta;
        bad.splits.anchor_index[0] = bad.num_symbols;  // out of range
        EXPECT_THROW(validate_metadata(bad), Error);
    }
    {
        auto bad = meta;
        bad.splits.states.pop_back();  // a column shorter than its rows
        EXPECT_THROW(validate_metadata(bad), Error);
    }
}

TEST(MetadataCodec, HeaderFieldCorruptionRejected) {
    auto meta = make_meta(100000, 0.5, 16);
    auto bytes = serialize_metadata(meta);
    {
        auto bad = bytes;
        bad[4] = 0;  // zero lanes
        EXPECT_THROW(deserialize_metadata(bad), Error);
    }
    {
        auto bad = bytes;
        bad[5] = 40;  // absurd state width
        EXPECT_THROW(deserialize_metadata(bad), Error);
    }
    // A split count (bytes 24-31) the bytes cannot hold fails before any
    // column is sized by it: every split carries at least its lanes' states.
    for (const u64 M : {u64{1} << 32, (u64{1} << 26) + 1}) {
        const auto bad = test::with_le(bytes, 24, M);
        EXPECT_NE(test::error_of([&] { (void)deserialize_metadata(bad); })
                      .find("metadata: split count exceeds the bytes"),
                  std::string::npos)
            << M << " splits";
    }
}

TEST(MetadataCodec, FuzzRandomBytesNeverCrash) {
    // Arbitrary input must either parse (vacuously) or throw recoil::Error —
    // never crash or hang.
    Xoshiro256 rng(65);
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<u8> junk(rng.below(600));
        for (auto& b : junk) b = static_cast<u8>(rng());
        try {
            auto meta = deserialize_metadata(junk);
            validate_metadata(meta);  // if it parsed, it must be coherent
        } catch (const Error&) {
            // expected for nearly all inputs
        }
    }
    SUCCEED();
}

TEST(MetadataCodec, FuzzMutatedValidMetadata) {
    // Mutations of real metadata must parse to something valid or throw.
    auto meta = make_meta(80000, 0.5, 32);
    auto bytes = serialize_metadata(meta);
    Xoshiro256 rng(66);
    for (int iter = 0; iter < 300; ++iter) {
        auto bad = bytes;
        const int flips = 1 + static_cast<int>(rng.below(8));
        for (int f = 0; f < flips; ++f)
            bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
        try {
            auto parsed = deserialize_metadata(bad);
            validate_metadata(parsed);
        } catch (const Error&) {
        }
    }
    SUCCEED();
}

TEST(MetadataCodec, PaperTable3Parameters) {
    // The experiment configuration of Table 3, asserted once.
    static_assert(Rans32::state_bits == 32);
    static_assert(Rans32::unit_bits == 16);               // b = 16
    static_assert(Rans32::lower_bound == (1u << 16));     // L = 2^16
    static_assert(Rans32::max_prob_bits == 16);           // n <= 16
    static_assert(kLanes == 32);                          // |E| = |D| = 32
    // b >= n guarantees single-step renormalization (Lemma 3.1 prerequisite).
    static_assert(Rans32::unit_bits >= Rans32::max_prob_bits ||
                  Rans32::lower_bound_log2 >= Rans32::max_prob_bits);
    SUCCEED();
}

TEST(MetadataCodec, NoSplitsStillRoundTrips) {
    auto meta = make_meta(10000, 0.5, 1);
    EXPECT_TRUE(meta.splits.empty());
    auto back = deserialize_metadata(serialize_metadata(meta));
    expect_equal(meta, back);
}

}  // namespace
}  // namespace recoil
