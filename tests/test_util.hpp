#pragma once
// Shared helpers for the test suite: deterministic synthetic symbol streams
// with controllable skew, model construction shortcuts, response-cache keys,
// resealed wires and on-disk corruption.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/recoil_encoder.hpp"
#include "format/container.hpp"
#include "rans/indexed_model.hpp"
#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "serve/metadata_cache.hpp"
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

/// `meta` with only the split rows `rows` (ascending) of its table.
inline RecoilMetadata keep_splits(const RecoilMetadata& meta, std::span<const u64> rows) {
    RecoilMetadata out = meta;
    out.splits.clear();
    for (const u64 k : rows) out.splits.push_back(meta.split(k));
    return out;
}

/// Exactly S splits: S - 1 of `meta`'s split points, evenly spread by index.
inline RecoilMetadata with_splits(const RecoilMetadata& meta, u32 S) {
    std::vector<u64> rows;
    for (u64 i = 1; i < S; ++i) rows.push_back(i * meta.splits.size() / S);
    return keep_splits(meta, rows);
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

/// A response-cache key for tests that name their entries: the hashed
/// `name` stands in for an asset instance, `parallelism` is the client
/// class.
inline serve::ResponseKey cache_key(std::string_view name, u32 parallelism) {
    return {std::hash<std::string_view>{}(name), parallelism};
}

/// The message `parse` raises, or "" when it accepts its input.
template <typename Parse>
std::string error_of(Parse&& parse) {
    try {
        parse();
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

/// `w` with the little-endian u64 or u32 at `at` set to `v`.
template <typename T>
std::vector<u8> with_le(std::vector<u8> w, std::size_t at, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) w[at + i] = static_cast<u8>(v >> (8 * i));
    return w;
}

/// Recompute a wire's FNV-1a trailer after tampering, as an attacker can.
/// `erase`, not `resize`: GCC 12 misreads the shrinking resize as an
/// overflow (-Wstringop-overflow) in the sanitize build.
inline std::vector<u8> reseal(std::vector<u8> w) {
    w.erase(w.end() - 8, w.end());
    const u64 sum = format::fnv1a(w);
    for (int i = 0; i < 8; ++i) w.push_back(static_cast<u8>(sum >> (8 * i)));
    return w;
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
