// Differential tests: every SIMD backend must produce bit-identical output
// and identical cursor/lane state to the scalar per-symbol reference, across
// models (packed LUT, wide LUT, adaptive), symbol widths and alignments.

#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <string>

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
    // AVX2, BMI2, AVX512 F/DQ/BW/VL; VBMI, VBMI2, GFNI, VPCLMULQDQ
    all.leaf7_ebx = (1u << 5) | (1u << 8) | (1u << 16) | (1u << 17) | (1u << 30) |
                    (1u << 31);
    all.leaf7_ecx = (1u << 1) | (1u << 6) | (1u << 8) | (1u << 10);
    all.xcr0 = 0xe7;  // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
    const CpuFeatures f = detect_cpu_features(all);
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.avx512);
    EXPECT_EQ(f.avx512_missing, nullptr);

    // Without saved YMM state, or without OSXSAVE, no SIMD bit is set.
    for (const u64 xcr0 : {u64{0}, u64{0x3}, u64{0x5}, u64{0xe3}}) {
        CpuidWords w = all;
        w.xcr0 = xcr0;
        const CpuFeatures m = detect_cpu_features(w);
        EXPECT_FALSE(m.avx2 || m.avx512) << "xcr0 " << xcr0;
        EXPECT_STREQ(m.avx512_missing, "XCR0.YMM");
    }
    CpuidWords no_xsave = all;
    no_xsave.leaf1_ecx = 0;
    const CpuFeatures n = detect_cpu_features(no_xsave);
    EXPECT_FALSE(n.avx2 || n.avx512);
    EXPECT_STREQ(n.avx512_missing, "OSXSAVE");

    // YMM without opmask/ZMM state: AVX2 only.
    CpuidWords ymm = all;
    ymm.xcr0 = 0x7;
    const CpuFeatures y = detect_cpu_features(ymm);
    EXPECT_TRUE(y.avx2);
    EXPECT_FALSE(y.avx512);
    EXPECT_STREQ(y.avx512_missing, "XCR0.ZMM");

    // The decode kernel and the hash share one bit: without any of the
    // further features either needs, the CPU takes the AVX2 kernel.
    struct Further {
        u32 CpuidWords::*word;
        unsigned bit;
        const char* name;
    };
    const Further further[] = {{&CpuidWords::leaf7_ecx, 1, "AVX512VBMI"},
                               {&CpuidWords::leaf7_ecx, 6, "AVX512VBMI2"},
                               {&CpuidWords::leaf7_ebx, 8, "BMI2"},
                               {&CpuidWords::leaf7_ecx, 8, "GFNI"},
                               {&CpuidWords::leaf7_ecx, 10, "VPCLMULQDQ"}};
    for (const Further& b : further) {
        CpuidWords w = all;
        w.*b.word &= ~(1u << b.bit);
        const CpuFeatures m = detect_cpu_features(w);
        EXPECT_TRUE(m.avx2) << b.name;
        EXPECT_FALSE(m.avx512) << b.name;
        EXPECT_STREQ(m.avx512_missing, b.name);
    }

    // Skylake-SP and Cascade Lake: AVX512 F/DQ/BW/VL without VBMI or VBMI2.
    CpuidWords skx = all;
    skx.leaf7_ecx = 0;
    const CpuFeatures k = detect_cpu_features(skx);
    EXPECT_TRUE(k.avx2);
    EXPECT_FALSE(k.avx512);
    EXPECT_STREQ(k.avx512_missing, "AVX512VBMI");
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
    // Hand a per-symbol cursor to the kernel at every alignment of the top:
    // the ragged top group runs masked, and the run leaves as a per-symbol
    // cursor that drain_start accepts.
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

/// One run of the edge tests below, and its own tables (an indexed run may
/// carry an id slice of exactly its positions).
struct EdgeRun {
    LaneCursor<Rans32, 32> start;
    std::span<const u16> units;
    u64 lo, hi;
    DecodeTables t;
    const SplitPoint* entry = nullptr;
};

template <typename TSym>
struct EdgeResult {
    std::vector<TSym> out;  ///< positions [lo, hi] of the runs, rebased
    std::vector<LaneCursor<Rans32, 32>> exit;
};

/// Decode up to four runs in one call of `fn` into a buffer of exactly the
/// positions they span (prefilled with `fill`): any store outside them is a
/// heap overflow, and the exit cursors are the per-symbol cursors at lo.
template <typename TSym, typename Fn>
EdgeResult<TSym> decode_edge(const Fn& fn, std::span<const EdgeRun> runs) {
    u64 lo = runs[0].lo, hi = runs[0].hi;
    for (const auto& r : runs) {
        lo = std::min(lo, r.lo);
        hi = std::max(hi, r.hi);
    }
    EdgeResult<TSym> res;
    res.out.assign(hi - lo + 1, static_cast<TSym>(0x5a));
    TSym* rebased = reinterpret_cast<TSym*>(reinterpret_cast<std::uintptr_t>(res.out.data()) -
                                            static_cast<std::uintptr_t>(lo) * sizeof(TSym));
    for (const auto& r : runs) res.exit.push_back(r.start);
    std::vector<RangeRun<Rans32, 32, TSym>> rr;
    for (std::size_t i = 0; i < runs.size(); ++i)
        rr.push_back({&res.exit[i], runs[i].units, runs[i].hi, runs[i].lo, &runs[i].t, rebased,
                      runs[i].entry});
    fn(std::span<const RangeRun<Rans32, 32, TSym>>(rr));
    return res;
}

/// Every backend, on these runs singly and (when several) in one call, must
/// store what the per-symbol reference stores and leave its exit cursors.
template <typename TSym>
void expect_edges_match(std::span<const EdgeRun> runs, const std::string& what) {
    const ScalarRangeFn<Rans32, 32, TSym> scalar;
    std::vector<EdgeResult<TSym>> single_ref;
    for (const auto& r : runs) single_ref.push_back(decode_edge<TSym>(scalar, {&r, 1}));
    const EdgeResult<TSym> pair_ref = decode_edge<TSym>(scalar, runs);
    for (Backend b : available_backends()) {
        const simd::SimdRangeFn<TSym> range{b};
        const std::string name = what + " on " + simd::backend_name(b);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const auto got = decode_edge<TSym>(range, {&runs[i], 1});
            ASSERT_TRUE(got.out == single_ref[i].out) << name << ", run " << i;
            EXPECT_EQ(got.exit[0].x, single_ref[i].exit[0].x) << name << ", run " << i;
            EXPECT_EQ(got.exit[0].p, single_ref[i].exit[0].p) << name << ", run " << i;
        }
        if (runs.size() < 2) continue;
        const auto got = decode_edge<TSym>(range, runs);
        ASSERT_TRUE(got.out == pair_ref.out) << name << ", paired";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            EXPECT_EQ(got.exit[i].x, pair_ref.exit[i].x) << name << ", paired run " << i;
            EXPECT_EQ(got.exit[i].p, pair_ref.exit[i].p) << name << ", paired run " << i;
        }
    }
}

/// Split k of a Recoil stream as the decoder runs it: entered at its split
/// point with its synchronization entries, or, for the last split, fully
/// live from the final states at the top of the unit buffer.
EdgeRun split_edge_run(const RecoilEncoded<Rans32, 32>& enc, const RecoilMetadata& meta,
                       const DecodeTables& t, u32 k) {
    const std::span<const u16> units(enc.bitstream.units);
    EdgeRun r{{}, units, k > 0 ? meta.splits[k - 1].min_index : 0, 0, t};
    if (k + 1 == meta.num_splits()) {
        std::copy(enc.bitstream.final_states.begin(), enc.bitstream.final_states.end(),
                  r.start.x.begin());
        r.start.p = static_cast<i64>(units.size()) - 1;
        r.hi = meta.num_symbols - 1;
    } else {
        r.start.p = static_cast<i64>(meta.splits[k].offset);
        r.hi = meta.splits[k].anchor_index;
        r.entry = &meta.splits[k];
    }
    return r;
}

/// Three and four runs in one call (Simd.PairedRunsMatchTwoSingleRuns), of
/// `TSym` symbols: Recoil splits of a stream on packed tables (n = 11, 256
/// symbols) and of one on wide tables (n = 16, `alphabet` symbols).
template <typename TSym>
void expect_grouped_splits(u32 alphabet, u64 seed, const std::string& what) {
    const std::size_t n = 60000;
    const auto sp = test::geometric_symbols<TSym>(n, 0.6, 256, seed);
    const auto sw = test::geometric_symbols<TSym>(n, 0.97, alphabet, seed + 1);
    const StaticModel mp = test::model_for<TSym>(sp, 11, 256);
    const StaticModel mw = test::model_for<TSym>(sw, 16, alphabet);
    const DecodeTables tp = mp.tables(), tw = mw.tables();
    ASSERT_NE(tp.packed, nullptr) << what;
    ASSERT_EQ(tw.packed, nullptr) << what;
    const auto ep = recoil_encode<Rans32, 32>(std::span<const TSym>(sp), mp, 12);
    const auto ew = recoil_encode<Rans32, 32>(std::span<const TSym>(sw), mw, 12);
    ASSERT_GE(ep.metadata.num_splits(), 8u) << what;
    ASSERT_GE(ew.metadata.num_splits(), 8u) << what;
    // Splits of very unequal length: the kernel drops each run as it ends.
    RecoilMetadata mpu = ep.metadata, mwu = ew.metadata;
    mpu.splits = {ep.metadata.splits[0], ep.metadata.splits[1], ep.metadata.splits[3],
                  ep.metadata.splits[6]};
    mwu.splits = {ew.metadata.splits[0], ew.metadata.splits[2], ew.metadata.splits[3]};
    auto p = [&](u32 k) { return split_edge_run(ep, mpu, tp, k); };
    auto w = [&](u32 k) { return split_edge_run(ew, mwu, tw, k); };
    ASSERT_EQ(mpu.num_splits(), 5u);
    ASSERT_EQ(mwu.num_splits(), 4u);

    // Split 0 ends at the bottom of its unit buffer and the last split
    // starts at the top: their edge groups pop through the scalar fallback.
    const EdgeRun three[] = {p(2), p(0), p(1)};
    expect_edges_match<TSym>(three, what + ", three packed splits");
    const EdgeRun four[] = {p(3), p(1), p(4), p(2)};
    expect_edges_match<TSym>(four, what + ", four packed splits");
    const EdgeRun four_wide[] = {w(0), w(3), w(1), w(2)};
    expect_edges_match<TSym>(four_wide, what + ", four wide splits");
    // Packed and wide side by side; P's stored positions lie below W's.
    const EdgeRun mixed[] = {p(1), w(3), p(0), w(2)};
    expect_edges_match<TSym>(mixed, what + ", packed and wide splits");

    // A run that needs more units than remain below its cursor is a typed
    // error, also as the third of four.
    const std::vector<u16> few = {1, 2, 3, 4};
    EdgeRun bad{{}, few, 0, 63, tp};
    bad.start.x.fill(1);
    bad.start.p = static_cast<i64>(few.size()) - 1;
    const EdgeRun with_bad[] = {p(1), p(2), bad, p(3)};
    for (Backend b : available_backends()) {
        const simd::SimdRangeFn<TSym> range{b};
        EXPECT_THROW(decode_edge<TSym>(range, with_bad), Error)
            << what << " on " << simd::backend_name(b);
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

    // Three and four runs in one call, each set against the per-symbol
    // reference alone and together: unequal Recoil splits with
    // synchronization entries, buffer edges, packed and wide tables, u8 and
    // u16, and an underflow in the third run.
    expect_grouped_splits<u8>(256, 53, "u8");
    expect_grouped_splits<u16>(1024, 55, "u16");
}

TEST(Simd, GroupDisciplineMatchesPerSymbol) {
    // The scalar *group* kernel must agree with the per-symbol loop: the
    // SIMD kernels decode a whole 32-lane group per step, popping units in
    // lane order before the transform, which is correct only because that
    // pops the same units in the same order as one symbol at a time.
    auto syms = test::geometric_symbols<u8>(64000, 0.4, 256, 47);
    auto m = test::model_for<u8>(syms, 12, 256);
    auto bs = interleaved_encode<Rans32, 32>(std::span<const u8>(syms), m);
    auto ref = serial_decode<Rans32, 32, u8>(bs, m.tables());

    LaneCursor<Rans32, 32> cur;
    cur.x = bs.final_states;
    cur.p = static_cast<i64>(bs.units.size()) - 1;
    std::vector<u8> out(syms.size());
    // Force the group-kernel path regardless of backend.
    const DecodeTables t = m.tables();
    const simd::GroupRun<u8> run{cur.x.data(), bs.units.data(), bs.units.size(), &cur.p,
                                 &t, out.data(), 0, syms.size() - 1, syms.size()};
    simd::scalar_decode_groups<u8>(std::span<const simd::GroupRun<u8>>(&run, 1));
    drain_start<Rans32, 32>(cur, std::span<const u16>(bs.units), syms.size());
    EXPECT_EQ(cur.p, -1);
    // Compare only the group-aligned prefix the group kernel covered.
    const std::size_t covered = (syms.size() / 32) * 32;
    for (std::size_t i = 0; i < covered; ++i) ASSERT_EQ(out[i], ref[i]) << i;
}

/// The masked-kernel edge checks for one table layout.
template <typename TSym, typename Model>
void check_masked_edges(std::span<const TSym> syms, const Model& m, const char* layout) {
    const DecodeTables t = m.tables();
    const auto enc = recoil_encode<Rans32, 32>(syms, m, 2400);
    ASSERT_GE(enc.metadata.num_splits(), 2176u) << layout;
    RecoilMetadata meta = enc.metadata;  // exactly 2,176 splits, evenly spread
    meta.splits.clear();
    for (u64 i = 1; i < 2176; ++i)
        meta.splits.push_back(enc.metadata.splits[i * enc.metadata.splits.size() / 2176]);
    const std::span<const u16> units(enc.bitstream.units);

    // Every split as the decoder runs it: entered at its split point (the
    // last fully live), alone and paired with the next, whose
    // synchronization section differs in length.
    const u32 S = meta.num_splits();
    auto split_run = [&](u32 k) { return split_edge_run(enc, meta, t, k); };
    std::set<u64> min_res, anchor_res, lo_res;
    u32 uneven = 0;
    for (u32 k = 0; k + 1 < S; ++k) {
        const EdgeRun pair[2] = {split_run(k), split_run(k + 1)};
        expect_edges_match<TSym>(pair, std::string(layout) + ", splits " + std::to_string(k));
        const SplitPoint& sp = meta.splits[k];
        min_res.insert(sp.min_index % 32);
        anchor_res.insert(sp.anchor_index % 32);
        lo_res.insert(pair[0].lo % 32);
        if (k + 2 < S && sp.anchor_index / 32 - sp.min_index / 32 !=
                             meta.splits[k + 1].anchor_index / 32 - meta.splits[k + 1].min_index / 32)
            ++uneven;
        if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(min_res.size(), 32u) << layout;
    EXPECT_EQ(anchor_res.size(), 32u) << layout;
    EXPECT_EQ(lo_res.size(), 32u) << layout;
    EXPECT_GT(uneven, 0u) << layout;

    // The whole stream, with its synchronization statistics.
    RecoilDecodeStats want;
    const auto ref = recoil_decode<Rans32, 32, TSym>(units, meta, t, nullptr, &want);
    ASSERT_TRUE(std::equal(ref.begin(), ref.end(), syms.begin())) << layout;
    for (Backend b : available_backends()) {
        RecoilDecodeStats got;
        const auto dec =
            recoil_decode<Rans32, 32, TSym>(units, meta, t, nullptr, &got, simd::SimdRangeFn<TSym>{b});
        EXPECT_TRUE(dec == ref) << layout << " on " << simd::backend_name(b);
        EXPECT_EQ(got.sync_symbols, want.sync_symbols) << layout << " on " << simd::backend_name(b);
        EXPECT_EQ(got.skipped_positions, want.skipped_positions) << layout;
        EXPECT_EQ(got.cross_symbols, want.cross_symbols) << layout;
    }

    // Fully live runs over [lo, hi] with lo and hi at every offset within a
    // group, entered as the per-symbol cursor at hi; an indexed run reads an
    // id slice of exactly [lo, hi + 1). at[pos] is the cursor ready to
    // decode pos.
    const u64 n = 32 * 64;
    std::vector<LaneCursor<Rans32, 32>> at(n);
    LaneCursor<Rans32, 32> cur;
    std::copy(enc.bitstream.final_states.begin(), enc.bitstream.final_states.end(), cur.x.begin());
    cur.p = static_cast<i64>(units.size()) - 1;
    decode_positions<Rans32, 32, TSym>(cur, units, syms.size() - 1, n, t, nullptr);
    for (u64 pos = n; pos-- > 0;) {
        at[pos] = cur;
        decode_positions<Rans32, 32, TSym>(cur, units, pos, pos, t, nullptr);
    }
    std::vector<std::vector<u8>> slices;
    slices.reserve(2);
    auto window = [&](u64 lo, u64 hi) {
        EdgeRun r{at[hi], units, lo, hi, t};
        if (t.ids != nullptr) {
            slices.emplace_back(t.ids + lo, t.ids + hi + 1);
            r.t.ids = reinterpret_cast<const u8*>(
                reinterpret_cast<std::uintptr_t>(slices.back().data()) -
                static_cast<std::uintptr_t>(lo));
        }
        return r;
    };
    for (u64 lo_off = 0; lo_off < 32; ++lo_off) {
        for (u64 hi_off = 0; hi_off < 32; ++hi_off) {
            slices.clear();
            const u64 near_hi = 32 * 50 + hi_off + (hi_off < lo_off ? 32 : 0);
            const EdgeRun pair[2] = {window(32 * 40 + lo_off, 32 * 44 + hi_off),
                                           window(32 * 50 + lo_off, near_hi)};
            expect_edges_match<TSym>(pair, std::string(layout) + ", offsets " +
                                               std::to_string(lo_off) + "/" +
                                               std::to_string(hi_off));
            if (testing::Test::HasFatalFailure()) return;
            // The reference itself ends at the cursor it would hand on.
            const auto ref_run = decode_edge<TSym>(ScalarRangeFn<Rans32, 32, TSym>{}, {&pair[0], 1});
            EXPECT_EQ(ref_run.exit[0].x, at[pair[0].lo - 1].x);
            EXPECT_EQ(ref_run.exit[0].p, at[pair[0].lo - 1].p);
        }
    }
}

TEST(Simd, MaskedKernelMatchesThePerSymbolReferenceAtEveryEdge) {
    // Every phase of every run goes through the masked group kernel: a
    // split's synchronization groups (lanes joining at their recorded
    // index), the seam group at its min_index, the bottom group at the
    // previous split's min_index, a ragged top, and range edges at every
    // offset within a group. Outputs, exit cursors and statistics must
    // equal the per-symbol ScalarRangeFn's for packed (u8, n = 11), wide
    // (u8, n = 16) and indexed (u16) tables, with single and paired runs.
    const std::size_t n = 800000;
    {
        auto syms = test::geometric_symbols<u8>(n, 0.6, 256, 601);
        auto m = test::model_for<u8>(syms, 11, 256);
        ASSERT_NE(m.tables().packed, nullptr);
        check_masked_edges<u8>(syms, m, "packed");
    }
    {
        auto syms = test::geometric_symbols<u8>(n, 0.7, 256, 602);
        auto m = test::model_for<u8>(syms, 16, 256);
        ASSERT_EQ(m.tables().packed, nullptr);
        check_masked_edges<u8>(syms, m, "wide");
    }
    Xoshiro256 rng(603);
    std::vector<u16> syms(n);
    std::vector<u8> ids(n);
    std::vector<std::vector<u64>> counts(3, std::vector<u64>(1024, 1));
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>((i / 5) % 3);
        const double q = ids[i] == 0 ? 0.5 : ids[i] == 1 ? 0.9 : 0.98;
        u32 v = 0;
        while (v < 1023 && rng.uniform() < q) ++v;
        syms[i] = static_cast<u16>(v);
        ++counts[ids[i]][v];
    }
    std::vector<StaticModel> models;
    for (const auto& c : counts) models.emplace_back(c, 14);
    const IndexedModelSet set(std::move(models), ids);
    check_masked_edges<u16>(syms, set, "indexed");
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
