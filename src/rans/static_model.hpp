#pragma once
// Static (order-0) probability model: one quantized distribution shared by
// every symbol position. Provides the encode lookup (freq, cum); the slot
// decode LUT (Equation 2's symbol search), in the table layout consumed by
// both the scalar and SIMD decoders, comes from DecodeModel, the decode-only
// builder every decoder uses.

#include <bit>
#include <memory>
#include <span>
#include <vector>

#include "util/ints.hpp"

namespace recoil {

struct EncSymbol {
    u32 freq;
    u32 cum;
};

/// Division-free encode entry (rans64-style reciprocal multiplication):
/// with q = mulhi64(x, rcp_freq) >> rcp_shift  (== x / freq, exact for all
/// x < 2^63 — our 32-bit states included), the encode transform
/// x' = ((x/f) << n) + cum + (x % f) becomes x' = x + bias + q * cmpl_freq
/// with cmpl_freq = 2^n - freq.
struct EncSymbolFast {
    u64 rcp_freq;   ///< ceil(2^(shift+63) / freq), or ~0 for freq == 1
    u32 freq;
    u32 bias;       ///< cum, or cum + 2^n - 1 for freq == 1
    u32 cmpl_freq;  ///< (1 << prob_bits) - freq
    u32 rcp_shift;  ///< shift - 1 with shift = ceil(log2 freq)

    /// Equivalent of Eq. 1 without the hardware divide.
    template <typename StateT>
    StateT encode(StateT x) const noexcept {
        const u64 hi = static_cast<u64>(
            (static_cast<unsigned __int128>(x) * rcp_freq) >> 64);
        const u32 q = static_cast<u32>(hi >> rcp_shift);
        return x + bias + q * cmpl_freq;
    }

    static EncSymbolFast make(u32 freq, u32 cum, u32 prob_bits) noexcept {
        EncSymbolFast e{};
        e.freq = freq;
        e.cmpl_freq = (u32{1} << prob_bits) - freq;
        if (freq < 2) {
            // freq == 1 (or unused 0): rcp_freq = 2^64 - 1 gives q = x - 1
            // for x >= 1; compensating in the bias restores the exact
            // transform: x + (cum + 2^n - 1) + (x-1)(2^n - 1) = (x << n) + cum.
            e.rcp_freq = ~u64{0};
            e.rcp_shift = 0;
            e.bias = cum + (u32{1} << prob_bits) - 1;
        } else {
            const auto shift = static_cast<u32>(std::bit_width(freq - 1));  // ceil(log2)
            e.rcp_freq = static_cast<u64>(
                ((static_cast<unsigned __int128>(1) << (shift + 63)) + freq - 1) /
                freq);
            e.rcp_shift = shift - 1;
            e.bias = cum;
        }
        return e;
    }
};

struct DecSymbol {
    u32 sym;
    u32 freq;
    u32 cum;
};

/// Gather-friendly decode table view shared by all decoder back ends.
///
/// Layout per slot (slot = state & (2^prob_bits - 1)):
///   fc[slot]  = ((freq - 1) << 16) | cum      (freq-1 so freq = 2^16 fits)
///   sym[slot] = symbol value
/// When `packed` is non-null (8-bit symbols and prob_bits <= 12, the paper's
/// §4.4 optimization), a single gather suffices:
///   packed[slot] = ((freq - 1) << 20) | (cum << 8) | sym
/// For adaptive models, `ids` maps symbol index -> model id and tables are
/// indexed by (id << prob_bits) | slot; for static models ids == nullptr.
struct DecodeTables {
    const u32* fc = nullptr;
    const u32* sym = nullptr;
    const u32* packed = nullptr;
    const u8* ids = nullptr;
    u32 prob_bits = 0;

    DecSymbol lookup(u64 sym_index, u32 slot) const noexcept {
        const u64 base = ids ? (u64{ids[sym_index]} << prob_bits) : 0;
        const u32 f_c = fc[base + slot];
        return DecSymbol{sym[base + slot], (f_c >> 16) + 1, f_c & 0xffffu};
    }
};

/// Decode-only model: the DecodeTables of one quantized pdf, or of a family
/// of pdfs selected per symbol index (§3.1), built straight from the pdfs
/// with no encoder state. Every decoder builds its tables here; StaticModel
/// and IndexedModelSet take theirs from it.
class DecodeModel {
public:
    /// `pdfs`: 1 to 256 pdfs (ids are 8-bit), all of one alphabet size, each
    /// summing to 2^prob_bits. `ids`: the ids the tables will be read with,
    /// if any; each must name one of the pdfs. Anything else raises
    /// recoil::Error. The packed table is built for one pdf of at most 256
    /// symbols at prob_bits <= 12.
    DecodeModel(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                std::span<const u8> ids = {});

    u32 model_count() const noexcept { return model_count_; }

    /// The tables, with `ids` mapping symbol index -> pdf (nullptr for one
    /// pdf); pass the ids the constructor checked. `packed` is set only
    /// without ids.
    DecodeTables tables(const u8* ids = nullptr) const noexcept {
        DecodeTables t;
        t.fc = fc_.data();
        t.sym = sym_.data();
        t.packed = ids == nullptr && !packed_.empty() ? packed_.data() : nullptr;
        t.ids = ids;
        t.prob_bits = prob_bits_;
        return t;
    }

private:
    u32 prob_bits_;
    u32 model_count_;
    // Per slot, pdf after pdf, so tables gather at (id << prob_bits) | slot.
    std::vector<u32> fc_;      // ((freq-1)<<16)|cum
    std::vector<u32> sym_;     // symbol
    std::vector<u32> packed_;  // ((freq-1)<<20)|(cum<<8)|sym, when applicable
};

class StaticModel {
public:
    /// Build from raw counts (quantizes internally).
    StaticModel(std::span<const u64> counts, u32 prob_bits);
    /// Build from an already-quantized PDF summing to 2^prob_bits.
    StaticModel(std::span<const u32> freq, u32 prob_bits, int /*tag*/);

    u32 prob_bits() const noexcept { return prob_bits_; }
    u32 alphabet() const noexcept { return static_cast<u32>(freq_.size()); }

    u32 freq(u32 sym) const noexcept { return freq_[sym]; }
    u32 cum(u32 sym) const noexcept { return cum_[sym]; }

    /// Encode-side lookup; `sym_index` ignored (static model).
    EncSymbol enc_lookup(u64 /*sym_index*/, u32 sym) const noexcept {
        return EncSymbol{freq_[sym], cum_[sym]};
    }

    /// Division-free encode entry; `sym_index` ignored (static model).
    const EncSymbolFast& enc_fast(u64 /*sym_index*/, u32 sym) const noexcept {
        return fast_[sym];
    }

    DecodeTables tables() const noexcept { return decode_.tables(); }

    /// Shannon cost, in bits, of coding `counts` with this model (for tests
    /// and the compression-rate benches).
    double cross_entropy_bits(std::span<const u64> counts) const;

private:
    void build_fast();

    u32 prob_bits_;
    std::vector<u32> freq_;
    std::vector<u32> cum_;    // size alphabet + 1
    std::vector<EncSymbolFast> fast_;  // per-symbol division-free entries
    DecodeModel decode_;      // built from freq_
};

}  // namespace recoil
