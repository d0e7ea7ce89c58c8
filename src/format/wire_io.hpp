#pragma once
// Little-endian wire primitives shared by every serializer/parser in the
// library (container, chunked stream, range wire). Parsers consume untrusted
// bytes: Cursor::need compares against the remaining length so an
// attacker-controlled u64 size cannot wrap `pos + n` past the bounds check,
// and freq tables are validated to sum to exactly 2^prob_bits before they
// can reach a model's table builder.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::format {

/// FNV-1a 64-bit, used as the container integrity checksum (container.cpp).
u64 fnv1a(std::span<const u8> bytes);

/// FNV-1a offset basis: the initial state of an incremental hash.
inline constexpr u64 kFnvInit = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit prime P: a step is h' = (h ^ b) * P.
inline constexpr u64 kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a: fold `bytes` into `state` (seed with kFnvInit).
/// Hashing a buffer piece by piece yields the same digest as one pass, which
/// is what lets a streaming wire producer emit its trailing checksum without
/// ever holding the whole wire. Whole 512-byte blocks take a bit-sliced
/// AVX-512 path where the CPU has one (docs/serve_protocol.md, "How the
/// checksum is computed"); the digest is the serial loop's either way.
u64 fnv1a(std::span<const u8> bytes, u64 state);

/// The byte-at-a-time FNV-1a loop: the reference every digest above equals,
/// and the path for spans under a block, for tails and on other CPUs.
u64 fnv1a_serial(std::span<const u8> bytes, u64 state);

/// Fold `bytes` into two incremental FNV-1a states in one pass, for bytes
/// that belong to two checksums (a wire's trailer and the body frame that
/// streams them). The two chains share each block's bit transpose but walk
/// their own bit planes, so a pass costs about 1.9x one fnv1a pass: less
/// than two passes, far more than one.
void fnv1a2(std::span<const u8> bytes, u64& a, u64& b);

/// What folding one payload's n bytes does to any FNV-1a state, learned
/// from the folds made so far. n steps take h to h * P^n + G, and G depends
/// on h only through its low byte: only the low byte meets the xor, and the
/// low byte's own chain never sees the high bits (docs/serve_protocol.md,
/// "How the checksum is computed"). So a payload has at most 256 values of
/// G, each learned from the first fold at its low byte; a later fold at
/// that low byte costs one multiply. Lock-free: any number of threads may
/// fold one payload at once, and two that learn the same G store the same
/// value. 2 KiB per payload.
class FnvMemo {
public:
    explicit FnvMemo(u64 n) {
        for (u64 base = kFnvPrime; n != 0; n >>= 1, base *= base)
            if ((n & 1) != 0) pn_ *= base;
    }

    /// `state` after the payload's bytes, when this low byte has been met.
    std::optional<u64> recall(u64 state) const {
        const auto low = static_cast<unsigned>(state & 0xff);
        if ((known_[low / 64].load(std::memory_order_acquire) &
             (u64{1} << (low % 64))) == 0)
            return std::nullopt;
        return state * pn_ + g_[low].load(std::memory_order_relaxed);
    }

    /// Fold the payload's `bytes` into `state`: recalled in O(1), or one
    /// fnv1a pass that the memo learns from.
    u64 fold(std::span<const u8> bytes, u64 state) const;

private:
    u64 pn_ = 1;  ///< P^n
    mutable std::atomic<u64> known_[4] = {};  ///< bit L: g_[L] is set
    mutable std::atomic<u64> g_[256] = {};
};

/// The checksum a frame or wire ends with: its last 8 bytes, LE. Requires
/// at least 8 bytes.
inline u64 stored_checksum(std::span<const u8> bytes) {
    u64 stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= u64{bytes[bytes.size() - 8 + i]} << (8 * i);
    return stored;
}

/// FNV-1a of a whole sealed wire — one whose last 8 bytes are the LE FNV-1a
/// of everything above them, as every container, RCS and RCR2 serializer
/// emits — from those 8 bytes alone: the trailer's value is the running
/// state after the payload, so folding the trailer into it finishes the
/// whole-wire digest without a second pass. `tail` must end with the
/// trailer (the whole wire or just its last 8 bytes).
inline u64 sealed_fnv1a(std::span<const u8> tail) {
    RECOIL_CHECK(tail.size() >= 8,
                 "sealed_fnv1a: wire shorter than its trailer");
    return fnv1a(tail.last(8), stored_checksum(tail));
}

/// Payload storage that is either owned or a zero-copy view into bytes kept
/// alive by an external keeper (an mmapped container file). Copies share the
/// underlying storage, so re-serializing or combining a parsed container
/// never duplicates the bitstream. The keeper outlives every view, which is
/// what makes handing spans of a mapping around safe.
///
/// A buffer made over storage (an owned vector, or view()) carries an
/// FnvMemo of its bytes, shared by every copy and every full-range slice()
/// or as_bytes() of it, so an unframed wire that reaches the payload at a
/// low byte an earlier wire met folds it in O(1). A slice of part of the
/// buffer carries none, and neither does a section(): the structural bytes
/// a serializer builds for one wire.
template <typename T>
class SharedBuffer {
public:
    SharedBuffer() = default;
    SharedBuffer(std::vector<T> own)  // NOLINT: implicit by design
        : SharedBuffer(std::move(own), true) {}
    SharedBuffer& operator=(std::vector<T> own) {
        *this = SharedBuffer(std::move(own));
        return *this;
    }

    /// View over caller-kept bytes; `keeper` must own the storage `s` points
    /// into and is retained for the buffer's lifetime. The bytes must not
    /// change while the buffer lives: its memo keeps what they first hashed
    /// to.
    static SharedBuffer view(std::span<const T> s,
                             std::shared_ptr<const void> keeper) {
        SharedBuffer b;
        b.view_ = s;
        b.keeper_ = std::move(keeper);
        b.memo_ = std::make_shared<const FnvMemo>(s.size_bytes());
        b.borrowed_ = true;
        return b;
    }

    /// Owned bytes without a memo: a structural section built for one wire.
    static SharedBuffer section(std::vector<T> own) {
        return SharedBuffer(std::move(own), false);
    }

    const T* data() const noexcept { return view_.data(); }
    std::size_t size() const noexcept { return view_.size(); }
    bool empty() const noexcept { return view_.empty(); }
    const T* begin() const noexcept { return view_.data(); }
    const T* end() const noexcept { return view_.data() + view_.size(); }
    const T& operator[](std::size_t i) const noexcept { return view_[i]; }
    operator std::span<const T>() const noexcept { return view_; }  // NOLINT

    /// True when this buffer is a zero-copy view into external storage
    /// (e.g. an mmapped file) rather than an owned vector.
    bool borrowed() const noexcept { return borrowed_; }

    /// The storage owner this buffer retains (shared vector or mapped file).
    std::shared_ptr<const void> keeper() const noexcept { return keeper_; }

    /// The checksum memo of these exact bytes, or null.
    const std::shared_ptr<const FnvMemo>& memo() const noexcept {
        return memo_;
    }

    /// Sub-range view sharing this buffer's storage and keeper — never a
    /// copy, so slicing a payload for piecewise emission is free. The whole
    /// range keeps the memo; part of it has none.
    SharedBuffer slice(std::size_t pos, std::size_t n) const {
        SharedBuffer b = *this;
        b.view_ = view_.subspan(pos, n);
        if (b.view_.size() != view_.size()) b.memo_ = nullptr;
        return b;
    }

    /// The bytes as a borrowed view: the wire form of a payload piece
    /// (little-endian u16s are their own wire encoding). It shares this
    /// buffer's storage, keeper and memo, and owns nothing a response is
    /// charged for.
    SharedBuffer<u8> as_bytes() const {
        SharedBuffer<u8> b;
        b.view_ = std::span<const u8>(
            reinterpret_cast<const u8*>(view_.data()), view_.size_bytes());
        b.keeper_ = keeper_;
        b.memo_ = memo_;
        b.borrowed_ = true;
        return b;
    }

    friend bool operator==(const SharedBuffer& a, const SharedBuffer& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    template <typename>
    friend class SharedBuffer;

    SharedBuffer(std::vector<T> own, bool memo)
        : memo_(memo ? std::make_shared<const FnvMemo>(own.size() * sizeof(T))
                     : nullptr) {
        auto v = std::make_shared<const std::vector<T>>(std::move(own));
        view_ = std::span<const T>(v->data(), v->size());
        keeper_ = std::move(v);
    }

    std::span<const T> view_;
    std::shared_ptr<const void> keeper_;
    std::shared_ptr<const FnvMemo> memo_;
    bool borrowed_ = false;
};

using UnitBuffer = SharedBuffer<u16>;  ///< bitstream units
using ByteBuffer = SharedBuffer<u8>;   ///< per-symbol model ids

/// A request for the checksums of the body frames a wire will stream in:
/// consecutive `bytes`-sized slices of the finished wire (the last one
/// shorter), each checksummed as FNV-1a over its frame header, then the
/// slice. The framing layer (serve/protocol) supplies `header`: the FNV-1a
/// state after the header of frame `seq` carrying `len` bytes, so this
/// layer needs no knowledge of the frame format.
struct FrameSums {
    u64 bytes = 0;  ///< 0: no frame checksums
    u64 (*header)(u32 seq, u64 len) = nullptr;
};

/// Push consumer of a wire under construction, fed pieces in wire order and
/// closed by seal(), which appends the trailer every container, RCS and
/// RCR2 wire ends with: the LE FNV-1a of every byte above it. The sink, not
/// the serializer, hashes. Pieces are ByteBuffers, so producers hand out
/// borrowed views of payload storage (mmapped bitstreams, shared id
/// streams) without copying; only the small structural sections are owned
/// allocations. A WireSink keeps the pieces as they come (take_pieces()):
/// the finished wire as a piece list, whose payload is never copied.
/// Every serializer in the library produces through this interface —
/// materializing a whole wire is just the VectorSink instance of it.
///
/// A piece that carries an FnvMemo (a whole payload) enters an unframed
/// sink's trailer chain through it: in O(1) once the payload has been
/// folded at that state's low byte, otherwise in the one fnv1a pass the
/// memo learns from.
///
/// A sink built with a FrameSums request also computes every frame
/// checksum in the same pass: each byte is read once and folded into the
/// trailer's chain and its frame's (fnv1a2, about 1.9x one fnv1a pass). It
/// ignores memos. A frame's chain starts with its header, which carries the
/// frame's length, so the sink holds the open frame's pieces as views until
/// that length is known — once the frame is full, or at seal() for the
/// last frame. The trailer's own 8 bytes enter only the frame chains: whole
/// in the last frame, or split across the last two.
class WireSink {
public:
    explicit WireSink(FrameSums frames = {}) : frames_(frames) {
        RECOIL_CHECK(frames.bytes == 0 ||
                         (frames.bytes >= 8 && frames.header != nullptr),
                     "WireSink: a frame must hold a whole trailer");
    }
    virtual ~WireSink() = default;
    WireSink(const WireSink&) = delete;
    WireSink& operator=(const WireSink&) = delete;

    void write(ByteBuffer piece);
    /// A structural section built for this wire: owned, with no memo.
    void write(std::vector<u8> section) {
        write(ByteBuffer::section(std::move(section)));
    }
    /// Append the trailer; the last call on a sink.
    void seal();
    /// Bytes written so far: the absolute wire offset, which alignment pads
    /// depend on.
    u64 bytes() const noexcept { return bytes_; }
    /// The requested frame checksums in frame order, complete after seal().
    const std::vector<u64>& frame_sums() const noexcept { return sums_; }
    /// FNV-1a of the whole sealed wire, trailer included; after seal().
    u64 digest() const noexcept { return digest_; }
    /// The non-empty pieces kept so far, in wire order (moved out).
    std::vector<ByteBuffer> take_pieces() noexcept { return std::move(pieces_); }

protected:
    /// Where each piece goes, in wire order (the trailer last). By default
    /// it joins the kept pieces.
    virtual void keep(ByteBuffer piece) {
        if (!piece.empty()) pieces_.push_back(std::move(piece));
    }

private:
    /// Fold the open frame's held pieces, now that its length `len` is
    /// known, into the trailer chain and a new frame chain; returns the
    /// frame chain's state.
    u64 fold_open_frame(u64 len);

    FrameSums frames_;
    u64 digest_ = kFnvInit;  ///< the trailer's chain; whole wire after seal()
    u64 bytes_ = 0;
    std::vector<ByteBuffer> open_;  ///< the open frame's unhashed pieces
    u64 open_bytes_ = 0;
    std::vector<u64> sums_;
    std::vector<ByteBuffer> pieces_;
};

/// Materializing sink: concatenates every piece (the legacy wire shape).
class VectorSink final : public WireSink {
public:
    using WireSink::WireSink;
    std::vector<u8> out;

private:
    void keep(ByteBuffer piece) override {
        out.insert(out.end(), piece.begin(), piece.end());
    }
};

namespace wire {

inline void put_u16(std::vector<u8>& out, u16 v) {
    for (int i = 0; i < 2; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
inline void put_u32(std::vector<u8>& out, u32 v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
/// Decoded 16-bit symbols as bytes: two little-endian bytes per symbol.
inline std::vector<u8> le_bytes(std::span<const u16> syms) {
    std::vector<u8> out;
    out.reserve(2 * syms.size());
    for (const u16 s : syms) put_u16(out, s);
    return out;
}
inline void put_u64(std::vector<u8>& out, u64 v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
/// Append a 4-byte format magic. Byte pushes, not a range insert: GCC 12
/// misreads a range insert into an empty vector as an overflow
/// (-Wstringop-overflow).
inline void put_magic(std::vector<u8>& out, const char (&magic)[4]) {
    for (const char c : magic) out.push_back(static_cast<u8>(c));
}

struct Cursor {
    std::span<const u8> in;
    const char* ctx = "wire";  ///< error-message prefix
    std::size_t pos = 0;

    void need(std::size_t n) const {
        // pos <= in.size() is an invariant, so comparing against the
        // remainder cannot overflow no matter how large n is.
        if (n > in.size() - pos) raise(std::string(ctx) + ": truncated");
    }
    u8 get_u8() {
        need(1);
        return in[pos++];
    }
    u16 get_u16() {
        need(2);
        u16 v = 0;
        for (int i = 0; i < 2; ++i) v = static_cast<u16>(v | (u16{in[pos + i]} << (8 * i)));
        pos += 2;
        return v;
    }
    u32 get_u32() {
        need(4);
        u32 v = 0;
        for (int i = 0; i < 4; ++i) v |= u32{in[pos + i]} << (8 * i);
        pos += 4;
        return v;
    }
    u64 get_u64() {
        need(8);
        u64 v = 0;
        for (int i = 0; i < 8; ++i) v |= u64{in[pos + i]} << (8 * i);
        pos += 8;
        return v;
    }
    std::span<const u8> get_bytes(std::size_t n) {
        need(n);
        auto s = in.subspan(pos, n);
        pos += n;
        return s;
    }
    /// Reject a header's count of items that each take at least `min_bytes`
    /// when the remaining bytes cannot hold them, before anything is sized
    /// by the count.
    void need_items(u64 count, std::size_t min_bytes, const char* what) const {
        if (count > (in.size() - pos) / min_bytes)
            raise(std::string(ctx) + ": " + what + " count exceeds the bytes");
    }
    /// Bytes of `count` 16-bit units; guards the count*2 multiply against
    /// wrapping before the bounds check.
    std::span<const u8> get_unit_bytes(u64 count) {
        if (count > (in.size() - pos) / 2)
            raise(std::string(ctx) + ": truncated");
        return get_bytes(static_cast<std::size_t>(count) * 2);
    }
};

inline void append_checksum(std::vector<u8>& out) { put_u64(out, fnv1a(out)); }

/// Verify the trailing checksum and return the payload it covers. `verify`
/// false skips the hash (for callers that already validated the same bytes
/// at a higher level, e.g. a store manifest checksum over a mapped file) but
/// still strips the trailer.
inline std::span<const u8> checked_payload(std::span<const u8> bytes,
                                           const char* ctx, bool verify = true) {
    if (bytes.size() < 16) raise(std::string(ctx) + ": too short");
    auto payload = bytes.first(bytes.size() - 8);
    if (verify && fnv1a(payload) != stored_checksum(bytes))
        raise(std::string(ctx) + ": checksum mismatch");
    return payload;
}

/// Pad marker so the u16 unit payload that follows starts at an even offset
/// within the serialized buffer: a one-byte pad count (0 or 1) followed by
/// that many zero bytes. With the container file mapped at a page-aligned
/// base, an even file offset makes the units directly addressable as u16
/// without copying (see SharedBuffer::view).
inline void put_unit_pad(std::vector<u8>& out, u64 base = 0) {
    const u8 pad = static_cast<u8>((base + out.size() + 1) % 2);
    out.push_back(pad);
    if (pad != 0) out.push_back(0);
}

/// Bytes put_unit_pad would append at buffer offset `pos`.
inline u64 unit_pad_size(u64 pos) { return 1 + (pos + 1) % 2; }

/// Consume a pad marker written by put_unit_pad.
inline void skip_unit_pad(Cursor& c) {
    const u8 pad = c.get_u8();
    if (pad > 1) raise(std::string(c.ctx) + ": bad unit padding");
    for (u8 i = 0; i < pad; ++i)
        if (c.get_u8() != 0) raise(std::string(c.ctx) + ": bad unit padding");
}

/// Consume `count` u16 units as a UnitBuffer: a zero-copy view into the
/// cursor's bytes when a keeper owns them and the payload is u16-aligned
/// (v2 containers mapped at offset 0 guarantee this), an owned copy
/// otherwise. Shared by every container parser.
inline UnitBuffer get_unit_buffer(Cursor& c, u64 count,
                                  const std::shared_ptr<const void>& keeper) {
    auto units = c.get_unit_bytes(count);
    if (keeper != nullptr &&
        reinterpret_cast<std::uintptr_t>(units.data()) % alignof(u16) == 0) {
        return UnitBuffer::view(
            std::span<const u16>(reinterpret_cast<const u16*>(units.data()),
                                 count),
            keeper);
    }
    std::vector<u16> copy(count);
    std::memcpy(copy.data(), units.data(), count * 2);
    return copy;
}

inline void put_freq_table(std::vector<u8>& out, std::span<const u32> freq) {
    put_u32(out, static_cast<u32>(freq.size()));
    for (u32 f : freq) put_u32(out, f);
}

/// The largest alphabet a wire of `sym_width`-byte symbols can carry.
inline u32 max_alphabet(u32 sym_width) { return u32{1} << (8 * sym_width); }

/// Parse a freq table and require it to be a valid quantized pdf for
/// `prob_bits` (entries summing to exactly 2^prob_bits), so hostile values
/// cannot overflow the decode-side cumulative tables, over at most
/// `max_alphabet` symbols (see max_alphabet(sym_width)), so no symbol
/// decodes past the width its output stores.
inline std::vector<u32> get_freq_table(Cursor& c, u32 prob_bits, u32 max_alphabet) {
    const u32 n = c.get_u32();
    if (n == 0 || n > max_alphabet) raise(std::string(c.ctx) + ": bad alphabet size");
    std::vector<u32> freq(n);
    u64 total = 0;
    for (auto& f : freq) {
        f = c.get_u32();
        total += f;
    }
    if (total != u64{1} << prob_bits)
        raise(std::string(c.ctx) + ": frequency table does not sum to 2^prob_bits");
    return freq;
}

}  // namespace wire
}  // namespace recoil::format
