// Differential tests: every SIMD backend must produce bit-identical output
// and identical cursor/lane state to the scalar per-symbol reference, across
// models (packed LUT, wide LUT, adaptive), symbol widths and alignments.

#include <gtest/gtest.h>

#include <iostream>

#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "rans/indexed_model.hpp"
#include "simd/dispatch.hpp"
#include "test_util.hpp"
#include "util/cpu.hpp"

namespace recoil {
namespace {

using simd::Backend;

std::vector<Backend> available_backends() {
    std::vector<Backend> v{Backend::Scalar};
    if (simd::clamp_backend(Backend::Avx2) == Backend::Avx2) v.push_back(Backend::Avx2);
    if (simd::clamp_backend(Backend::Avx512) == Backend::Avx512)
        v.push_back(Backend::Avx512);
    return v;
}

/// Decode a full stream through the SimdRangeFn at an arbitrary (hi, lo)
/// split pattern and compare with serial reference.
template <typename TSym, typename Model>
void expect_simd_matches(std::span<const TSym> syms, const Model& m) {
    auto enc = recoil_encode<Rans32, 32>(syms, m, 24);
    for (Backend b : available_backends()) {
        simd::SimdRangeFn<TSym> range{b};
        auto dec = recoil_decode<Rans32, 32, TSym>(
            std::span<const u16>(enc.bitstream.units), enc.metadata, m.tables(),
            nullptr, nullptr, range);
        ASSERT_EQ(dec.size(), syms.size());
        for (std::size_t i = 0; i < syms.size(); ++i) {
            ASSERT_EQ(dec[i], syms[i])
                << "backend " << simd::backend_name(b) << " at " << i;
        }
    }
}

TEST(Simd, BackendsAvailableOnThisHost) {
    // Informational: the suite passes regardless of the host's SIMD level,
    // but the log records which backends were actually exercised.
    for (Backend b : available_backends()) {
        std::cout << "available backend: " << simd::backend_name(b) << "\n";
    }
    SUCCEED();
}

TEST(Simd, CpuDetectionNeedsTheVectorStateTheOsSaves) {
    CpuidWords all;
    all.leaf1_ecx = 1u << 27;  // OSXSAVE
    // AVX2, AVX512 F/DQ/BW/VL; VBMI, GFNI, VPCLMULQDQ
    all.leaf7_ebx = (1u << 5) | (1u << 16) | (1u << 17) | (1u << 30) |
                    (1u << 31);
    all.leaf7_ecx = (1u << 1) | (1u << 8) | (1u << 10);
    all.xcr0 = 0xe7;  // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
    const CpuFeatures f = detect_cpu_features(all);
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.avx512);
    EXPECT_TRUE(f.avx512_fnv);
    EXPECT_EQ(f.avx512_fnv_missing, nullptr);

    // Without saved YMM state, or without OSXSAVE, no SIMD bit is set.
    for (const u64 xcr0 : {u64{0}, u64{0x3}, u64{0x5}, u64{0xe3}}) {
        CpuidWords w = all;
        w.xcr0 = xcr0;
        const CpuFeatures m = detect_cpu_features(w);
        EXPECT_FALSE(m.avx2 || m.avx512 || m.avx512_fnv) << "xcr0 " << xcr0;
        EXPECT_STREQ(m.avx512_fnv_missing, "XCR0.YMM");
    }
    CpuidWords no_xsave = all;
    no_xsave.leaf1_ecx = 0;
    const CpuFeatures n = detect_cpu_features(no_xsave);
    EXPECT_FALSE(n.avx2 || n.avx512 || n.avx512_fnv);
    EXPECT_STREQ(n.avx512_fnv_missing, "OSXSAVE");

    // YMM without opmask/ZMM state: AVX2 only.
    CpuidWords ymm = all;
    ymm.xcr0 = 0x7;
    const CpuFeatures y = detect_cpu_features(ymm);
    EXPECT_TRUE(y.avx2);
    EXPECT_FALSE(y.avx512 || y.avx512_fnv);
    EXPECT_STREQ(y.avx512_fnv_missing, "XCR0.ZMM");

    // Each bit only the hash needs: the decode kernels keep AVX-512.
    const std::pair<unsigned, const char*> hash_bits[] = {
        {1, "AVX512VBMI"}, {8, "GFNI"}, {10, "VPCLMULQDQ"}};
    for (const auto& [bit, name] : hash_bits) {
        CpuidWords w = all;
        w.leaf7_ecx &= ~(1u << bit);
        const CpuFeatures m = detect_cpu_features(w);
        EXPECT_TRUE(m.avx512);
        EXPECT_FALSE(m.avx512_fnv);
        EXPECT_STREQ(m.avx512_fnv_missing, name);
    }
}

TEST(Simd, PackedLutPath) {  // 8-bit symbols, n=11 -> single-gather LUT
    auto syms = test::geometric_symbols<u8>(250000, 0.6, 256, 41);
    auto m = test::model_for<u8>(syms, 11, 256);
    ASSERT_NE(m.tables().packed, nullptr);
    expect_simd_matches<u8>(syms, m);
}

TEST(Simd, WideLutPath) {  // n=16 disables the packed LUT
    auto syms = test::geometric_symbols<u8>(250000, 0.7, 256, 42);
    auto m = test::model_for<u8>(syms, 16, 256);
    ASSERT_EQ(m.tables().packed, nullptr);
    expect_simd_matches<u8>(syms, m);
}

TEST(Simd, SixteenBitSymbols) {
    auto syms = test::geometric_symbols<u16>(200000, 0.97, 4096, 43);
    std::vector<u64> counts(4096, 0);
    for (u16 s : syms) ++counts[s];
    StaticModel m(counts, 16);
    expect_simd_matches<u16>(syms, m);
}

TEST(Simd, AdaptiveModelPath) {
    const std::size_t n = 150000;
    Xoshiro256 rng(44);
    std::vector<u8> syms(n), ids(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 97) % 5);
        syms[i] = static_cast<u8>(rng.below(8 + 16 * ids[i]));
    }
    std::vector<std::vector<u64>> counts(5, std::vector<u64>(256, 1));
    for (std::size_t i = 0; i < n; ++i) ++counts[ids[i]][syms[i]];
    std::vector<StaticModel> models;
    for (auto& c : counts) models.emplace_back(c, 13);
    IndexedModelSet set(std::move(models), ids);
    ASSERT_NE(set.tables().ids, nullptr);
    expect_simd_matches<u8>(std::span<const u8>(syms), set);
}

TEST(Simd, SixteenBitAdaptivePath) {
    // 16-bit symbols AND per-index model ids together: the id-gather + wide
    // LUT + 16-bit symbol store combination in one kernel invocation.
    const std::size_t n = 120000;
    Xoshiro256 rng(49);
    std::vector<u16> syms(n);
    std::vector<u8> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 513) % 7);
        syms[i] = static_cast<u16>(rng.below(64 + 512 * ids[i]));
    }
    std::vector<std::vector<u64>> counts(7, std::vector<u64>(4096, 1));
    for (std::size_t i = 0; i < n; ++i) ++counts[ids[i]][syms[i]];
    std::vector<StaticModel> models;
    for (auto& c : counts) models.emplace_back(c, 16);
    IndexedModelSet set(std::move(models), ids);
    expect_simd_matches<u16>(std::span<const u16>(syms), set);
}

TEST(Simd, HighlySkewedRenormBursts) {
    // Skewed data renormalizes nearly every lane every group — stresses the
    // unit-distribution path (expand/permute) with large pop counts.
    auto syms = test::geometric_symbols<u8>(200000, 0.995, 256, 45);
    auto m = test::model_for<u8>(syms, 11, 256);
    expect_simd_matches<u8>(syms, m);
}

TEST(Simd, RaggedRangeAlignments) {
    // Exercise the scalar-head / kernel / scalar-tail composition at every
    // alignment of both ends.
    auto syms = test::geometric_symbols<u8>(4096 + 77, 0.5, 256, 46);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(syms), m);
    auto ref = serial_decode<Rans32, 32, u8>(bs, m.tables());

    for (Backend b : available_backends()) {
        if (b == Backend::Scalar) continue;
        for (u64 hi_off : {0u, 1u, 31u, 32u, 33u}) {
            simd::SimdRangeFn<u8> range{b};
            LaneCursor<Rans32, 32> cur;
            cur.x = bs.final_states;
            cur.p = static_cast<i64>(bs.units.size()) - 1;
            std::vector<u8> out(syms.size(), 0);
            const u64 hi = syms.size() - 1;
            // Scalar-decode the top `hi_off` positions, then hand off to the
            // SIMD range at an arbitrary alignment.
            if (hi_off > 0) {
                decode_positions<Rans32, 32>(cur, std::span<const u16>(bs.units), hi,
                                             hi - hi_off + 1, m.tables(), out.data());
            }
            const DecodeTables t = m.tables();
            const RangeRun<Rans32, 32, u8> run{&cur, bs.units, hi - hi_off, 0, &t, out.data()};
            range({&run, 1});
            drain_start<Rans32, 32>(cur, std::span<const u16>(bs.units), syms.size());
            EXPECT_EQ(cur.p, -1) << simd::backend_name(b) << " off " << hi_off;
            EXPECT_EQ(out, ref) << simd::backend_name(b) << " off " << hi_off;
        }
    }
}

TEST(Simd, GroupPopsBelowTheBitstreamAreTypedErrors) {
    // All 32 lanes below L need 32 units, but only 4 remain below the
    // cursor: every backend must refuse with a typed error, as the scalar
    // per-symbol loop does, instead of reading before the bitstream.
    auto syms = test::geometric_symbols<u8>(4096, 0.5, 256, 49);
    auto m = test::model_for<u8>(syms, 11, 256);
    const std::vector<u16> units = {1, 2, 3, 4};
    std::vector<u8> out(64);
    for (Backend b : available_backends()) {
        simd::SimdRangeFn<u8> range{b};
        LaneCursor<Rans32, 32> cur;
        cur.x.fill(1);
        cur.p = static_cast<i64>(units.size()) - 1;
        const DecodeTables t = m.tables();
        const RangeRun<Rans32, 32, u8> run{&cur, units, 63, 0, &t, out.data()};
        EXPECT_THROW(range({&run, 1}), Error)
            << simd::backend_name(b);
    }
}

TEST(Simd, PairedRunsMatchTwoSingleRuns) {
    // Two independent streams with different table layouts (packed n = 11,
    // wide n = 16), decoded as one pair and as two single runs. Stream A is
    // group-aligned and decoded whole, so its first group pops at the top of
    // its unit buffer and its last groups near the bottom: the kernel's
    // buffer-edge fallback, while B, resumed mid-stream, is on the fast path.
    // B is the longer run, so the kernel finishes it alone.
    using Run = RangeRun<Rans32, 32, u8>;
    auto syms_a = test::geometric_symbols<u8>(32 * 700, 0.5, 256, 51);
    auto syms_b = test::geometric_symbols<u8>(40000 + 13, 0.7, 256, 52);
    auto ma = test::model_for<u8>(syms_a, 11, 256);
    auto mb = test::model_for<u8>(syms_b, 16, 256);
    auto bs_a = interleaved_encode<Rans32, 32>(std::span<const u8>(syms_a), ma);
    auto bs_b = interleaved_encode<Rans32, 32>(std::span<const u8>(syms_b), mb);
    const std::span<const u16> ua(bs_a.units), ub(bs_b.units);
    const DecodeTables ta = ma.tables(), tb = mb.tables();
    LaneCursor<Rans32, 32> a0, b0;
    a0.x = bs_a.final_states;
    a0.p = static_cast<i64>(ua.size()) - 1;
    b0.x = bs_b.final_states;
    b0.p = static_cast<i64>(ub.size()) - 1;
    std::vector<u8> top(syms_b.size());
    decode_positions<Rans32, 32>(b0, ub, syms_b.size() - 1, 30005, tb, top.data());
    const u64 hi_a = syms_a.size() - 1, hi_b = 30004, lo_b = 1003;

    for (Backend b : available_backends()) {
        const simd::SimdRangeFn<u8> range{b};
        LaneCursor<Rans32, 32> a1 = a0, b1 = b0, a2 = a0, b2 = b0;
        std::vector<u8> oa1(syms_a.size()), ob1(syms_b.size()), oa2(syms_a.size()),
            ob2(syms_b.size());
        const Run a1_run{&a1, ua, hi_a, 0, &ta, oa1.data()};
        const Run b1_run{&b1, ub, hi_b, lo_b, &tb, ob1.data()};
        const Run pair[2] = {{&a2, ua, hi_a, 0, &ta, oa2.data()},
                             {&b2, ub, hi_b, lo_b, &tb, ob2.data()}};
        range({&a1_run, 1});
        range({&b1_run, 1});
        range(pair);
        const char* name = simd::backend_name(b);
        EXPECT_EQ(oa2, oa1) << name;
        EXPECT_EQ(ob2, ob1) << name;
        EXPECT_EQ(a2.x, a1.x) << name;
        EXPECT_EQ(a2.p, a1.p) << name;
        EXPECT_EQ(b2.x, b1.x) << name;
        EXPECT_EQ(b2.p, b1.p) << name;
        EXPECT_EQ(oa2, syms_a) << name;
        EXPECT_TRUE(std::equal(ob2.begin() + lo_b, ob2.begin() + hi_b + 1,
                               syms_b.begin() + lo_b))
            << name;
        drain_start<Rans32, 32>(a2, ua, syms_a.size());
        EXPECT_EQ(a2.p, -1) << name;

        // A run that needs more units than remain below its cursor is a
        // typed error, paired or not.
        const std::vector<u16> few = {1, 2, 3, 4};
        LaneCursor<Rans32, 32> bad, good = b0;
        bad.x.fill(1);
        bad.p = static_cast<i64>(few.size()) - 1;
        std::vector<u8> junk(64);
        const Run good_bad[2] = {{&good, ub, hi_b, lo_b, &tb, ob2.data()},
                                 {&bad, few, 63, 0, &ta, junk.data()}};
        EXPECT_THROW(range(good_bad), Error)
            << name;
    }
}

TEST(Simd, GroupDisciplineMatchesPerSymbol) {
    // The scalar *group* kernel must agree with the per-symbol loop: this is
    // the equivalence the SIMD kernels rely on (DESIGN.md §3.1).
    auto syms = test::geometric_symbols<u8>(64000, 0.4, 256, 47);
    auto m = test::model_for<u8>(syms, 12, 256);
    auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(syms), m);
    auto ref = serial_decode<Rans32, 32, u8>(bs, m.tables());

    LaneCursor<Rans32, 32> cur;
    cur.x = bs.final_states;
    cur.p = static_cast<i64>(bs.units.size()) - 1;
    std::vector<u8> out(syms.size());
    // Force the group-kernel path regardless of backend.
    simd::scalar_group_pops(cur.x.data(), bs.units.data(), cur.p);
    const DecodeTables t = m.tables();
    const simd::GroupRun<u8> run{cur.x.data(), bs.units.data(), bs.units.size(), &cur.p,
                                 syms.size() / 32 - 1, &t, out.data()};
    simd::scalar_decode_groups<u8>(std::span<const simd::GroupRun<u8>>(&run, 1),
                                   syms.size() / 32);
    drain_start<Rans32, 32>(cur, std::span<const u16>(bs.units), syms.size());
    EXPECT_EQ(cur.p, -1);
    // Compare only the group-aligned prefix the group kernel covered.
    const std::size_t covered = (syms.size() / 32) * 32;
    for (std::size_t i = 0; i < covered; ++i) ASSERT_EQ(out[i], ref[i]) << i;
}

TEST(Simd, ConventionalWithSimdRange) {
    auto syms = test::geometric_symbols<u8>(200000, 0.6, 256, 48);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 64);
    for (Backend b : available_backends()) {
        simd::SimdRangeFn<u8> range{b};
        auto dec = conventional_decode<Rans32, 32, u8>(enc, m.tables(), nullptr, range);
        EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()))
            << simd::backend_name(b);
    }
}

}  // namespace
}  // namespace recoil
