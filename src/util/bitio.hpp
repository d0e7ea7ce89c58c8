#pragma once
// LSB-first bit-granular writer/reader for the Recoil metadata codec's
// difference series (§4.3). Fields pack LSB-first into a 64-bit accumulator,
// which the writer flushes as whole little-endian 64-bit words into storage
// sized ahead of the loop; the reader refills it with one 64-bit load where
// eight bytes remain. The bytes are the same as a byte-at-a-time packer's.
//
// put_all/get_all move a span of same-width fields (a split's lane states,
// its lane-difference series) with the accumulator, fill count and buffer
// cursor held in locals: a byte store through the buffer may alias any
// member, so state kept in members would be reloaded after every store.
// put/get are the one-field forms.

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil {

// Words move by memcpy: like its unit payloads (format/wire_io.hpp), the
// library assumes a little-endian host.
static_assert(std::endian::native == std::endian::little, "bitio packs little-endian words");

/// Appends fields of 1..57 bits, LSB-first, after an optional byte prefix
/// (which finish() returns in front of the packed fields).
class BitWriter {
public:
    explicit BitWriter(std::vector<u8> prefix = {})
        : buf_(std::move(prefix)), base_(buf_.size()) {}

    void put(u64 value, u32 nbits) { put_all(std::span<const u64>(&value, 1), nbits); }

    /// Signed value in `nbits` magnitude bits plus one sign bit.
    void put_signed(i64 value, u32 nbits) {
        const u64 mag = static_cast<u64>(value < 0 ? -value : value);
        put(mag, nbits);
        put(value < 0 ? 1 : 0, 1);
    }

    /// Each of `values` as one `nbits`-wide field, in order.
    template <typename T>
    void put_all(std::span<const T> values, u32 nbits) {
        static_assert(std::is_unsigned_v<T>);
        RECOIL_CHECK(nbits >= 1 && nbits <= 57, "BitWriter field width out of range");
        // Room for every word these fields complete plus the partial one.
        const std::size_t need = base_ + 8 * (words_ + (fill_ + values.size() * nbits) / 64 + 1);
        if (buf_.size() < need) buf_.resize(std::max(need, buf_.capacity()));
        u8* out = buf_.data() + base_ + 8 * words_;
        u64 acc = acc_, wide = 0;
        u32 fill = fill_;
        for (const T v : values) {
            const u64 x = v;
            wide |= x >> nbits;
            acc |= x << fill;
            fill += nbits;
            if (fill >= 64) {
                std::memcpy(out, &acc, 8);
                out += 8;
                fill -= 64;
                acc = x >> (nbits - fill);  // the bits that did not fit
            }
        }
        RECOIL_CHECK(wide == 0, "BitWriter value too wide");
        acc_ = acc;
        fill_ = fill;
        words_ = static_cast<std::size_t>(out - (buf_.data() + base_)) / 8;
    }

    /// Flush the partial byte (zero-padded) and return the buffer.
    std::vector<u8> finish() {
        const std::size_t end = base_ + 8 * words_;
        buf_.resize(std::max(buf_.size(), end + 8));
        std::memcpy(buf_.data() + end, &acc_, 8);
        buf_.resize(end + (fill_ + 7) / 8);
        acc_ = 0;
        fill_ = 0;
        words_ = 0;
        return std::move(buf_);
    }

    /// Bits written so far (excluding padding).
    u64 bit_count() const noexcept { return u64{64} * words_ + fill_; }

private:
    std::vector<u8> buf_;   ///< prefix, words_ whole words, then room
    std::size_t base_;      ///< first byte of the packed fields
    std::size_t words_ = 0;
    u64 acc_ = 0;           ///< fill_ < 64 pending bits
    u32 fill_ = 0;
};

/// Reads back fields written by BitWriter, in order.
class BitReader {
public:
    explicit BitReader(std::span<const u8> bytes) : bytes_(bytes) {}

    u64 get(u32 nbits) {
        u64 v;
        get_all(std::span<u64>(&v, 1), nbits);
        return v;
    }

    i64 get_signed(u32 nbits) {
        const u64 mag = get(nbits);
        const u64 sign = get(1);
        return sign ? -static_cast<i64>(mag) : static_cast<i64>(mag);
    }

    /// Fill `out` with consecutive `nbits`-wide fields.
    template <typename T>
    void get_all(std::span<T> out, u32 nbits) {
        static_assert(std::is_unsigned_v<T>);
        RECOIL_CHECK(nbits >= 1 && nbits <= 57 && nbits <= 8 * sizeof(T),
                     "BitReader field width out of range");
        const u8* data = bytes_.data();
        const std::size_t size = bytes_.size();
        const u64 mask = (u64{1} << nbits) - 1;
        std::size_t pos = pos_;
        u64 acc = acc_;
        u32 fill = fill_;
        for (T& v : out) {
            if (fill < nbits) {
                if (pos + 8 <= size) {
                    // Take the whole bytes that fit (fill becomes 56..63).
                    // The loaded bits above `fill` belong to the next byte,
                    // which a later refill ORs in again unchanged.
                    u64 word;
                    std::memcpy(&word, data + pos, 8);
                    acc |= word << fill;
                    pos += (63 - fill) >> 3;
                    fill |= 56;
                }
                while (fill < nbits) {
                    if (pos >= size) raise("BitReader: out of data");
                    acc |= u64{data[pos++]} << fill;
                    fill += 8;
                }
            }
            v = static_cast<T>(acc & mask);
            acc >>= nbits;
            fill -= nbits;
        }
        pos_ = pos;
        acc_ = acc;
        fill_ = fill;
    }

    /// Bits consumed so far.
    u64 bit_count() const noexcept { return pos_ * 8 - fill_; }

private:
    std::span<const u8> bytes_;
    std::size_t pos_ = 0;
    u64 acc_ = 0;
    u32 fill_ = 0;
};

}  // namespace recoil
