#pragma once
// Shared helpers for the test suite: deterministic synthetic symbol streams
// with controllable skew, model construction shortcuts, and on-disk
// corruption.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "core/recoil_encoder.hpp"
#include "format/container.hpp"
#include "rans/indexed_model.hpp"
#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "util/xoshiro.hpp"

namespace recoil::test {

/// Geometric-ish symbol stream over [0, alphabet): p(k) ~ q^k. q close to 1
/// is nearly uniform (incompressible), small q is highly skewed.
template <typename TSym = u8>
std::vector<TSym> geometric_symbols(std::size_t n, double q, u32 alphabet,
                                    u64 seed) {
    Xoshiro256 rng(seed);
    std::vector<TSym> out(n);
    for (auto& s : out) {
        u32 v = 0;
        while (v + 1 < alphabet && rng.uniform() < q) ++v;
        s = static_cast<TSym>(v);
    }
    return out;
}

template <typename TSym = u8>
StaticModel model_for(std::span<const TSym> syms, u32 prob_bits, u32 alphabet) {
    std::vector<u64> counts(alphabet, 0);
    for (TSym s : syms) ++counts[static_cast<u32>(s)];
    return StaticModel(counts, prob_bits);
}

/// An indexed-model (two-model) file over byte symbols, `max_splits`-way.
inline format::RecoilFile indexed_file(std::span<const u8> syms, u32 max_splits) {
    std::vector<u8> ids(syms.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<u8>((i / 7) % 2);
    std::vector<u64> c0(256, 1), c1(256, 1);
    for (std::size_t i = 0; i < syms.size(); ++i)
        (ids[i] == 0 ? c0 : c1)[syms[i]]++;
    std::vector<StaticModel> models{StaticModel(c0, 11), StaticModel(c1, 11)};
    format::RecoilFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    format::RecoilFile::IndexedPayload p;
    for (const StaticModel& m : models) {
        std::vector<u32> freq(m.alphabet());
        for (u32 s = 0; s < m.alphabet(); ++s) freq[s] = m.freq(s);
        p.freqs.push_back(std::move(freq));
    }
    p.ids = ids;
    IndexedModelSet set(std::move(models), ids);
    auto enc = recoil_encode<Rans32, 32>(syms, set, max_splits);
    f.metadata = std::move(enc.metadata);
    f.units = std::move(enc.bitstream.units);
    f.model = std::move(p);
    return f;
}

/// Flip one bit in the middle of the file at `path`.
inline void flip_bit(const std::filesystem::path& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 0);
    f.seekg(size / 2);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(size / 2);
    f.write(&b, 1);
}

}  // namespace recoil::test
