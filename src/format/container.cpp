#include "format/container.hpp"

#include <cstring>

#include <immintrin.h>

#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "format/wire_io.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace recoil::format {

using namespace wire;

namespace {

constexpr char kMagic[4] = {'R', 'C', 'F', '1'};
constexpr u8 kVersion = 2;  ///< unit payload aligned via a pad marker

constexpr std::size_t kFnvBlock = 512;

// ---- Bit-sliced FNV-1a (AVX-512) -------------------------------------------
//
// A step is h' = (h ^ b) * P. Only the low byte L of h meets the xor, so
// with d = (L ^ b) - L a step is h' = (h + d) * P, and n steps give
// h_n = h_0 * P^n + sum d_i * P^(n-i): a polynomial in the d_i, which can be
// evaluated in parallel once every L_i is known. The low byte follows its
// own chain, L' = ((L ^ b) * 0xb3) mod 256 (0xb3 = P mod 256), and bit j of
// v * 0xb3 is v_j ^ f_j(v_0..v_j-1) for v = L ^ b. So across a block, bit
// plane j of L is a prefix xor of b_j ^ f_j once planes 0..j-1 are known.
//
// Each 512-byte block: (1) transpose the bytes into 8 bit planes of 512
// bits; (2) walk the planes from bit 0 to bit 7, taking f_j from
// carry-save carries of v * 0xb3 and the prefix xor from a carry-less
// multiply by all ones, with 8 carry bits into the next block; (3)
// transpose L back to bytes; (4) fold the block's polynomial into 8
// 64-bit lanes as h <- h * P^512 + sum d_i * P^(512-i). Every digest is
// bit-identical to the serial loop, which still hashes spans under a block
// and every tail.

constexpr u64 fnv_prime_power(unsigned k) {
    u64 r = 1;
    for (unsigned i = 0; i < k; ++i) r *= kFnvPrime;
    return r;
}

/// P^(512-i) for each position i of a block, as four signed 16-bit digits
/// (sum d_m * 2^(16m) = P^(512-i) mod 2^64), so VPMADDWD multiplies them
/// with the 9-bit signed d_i. Ordered as the d words come out of the
/// unpack: [register r][unpack half][digit m][word w], with word w of half
/// h in register r at position 64r + 16(w/8) + 8h + w%8.
struct FnvWeights {
    alignas(64) i16 d[8][2][4][32] = {};
};

constexpr FnvWeights make_fnv_weights() {
    FnvWeights t;
    for (unsigned r = 0; r < 8; ++r)
        for (unsigned h = 0; h < 2; ++h)
            for (unsigned w = 0; w < 32; ++w) {
                const unsigned pos = 64 * r + 16 * (w / 8) + 8 * h + w % 8;
                u64 x = fnv_prime_power(
                    static_cast<unsigned>(kFnvBlock) - pos);
                for (unsigned m = 0; m < 4; ++m) {
                    const auto digit = static_cast<i16>(x & 0xffff);
                    t.d[r][h][m][w] = digit;
                    x = (x - static_cast<u64>(i64{digit})) >> 16;
                }
            }
    return t;
}

constexpr FnvWeights kFnvWeights = make_fnv_weights();

/// A byte permutation for VPERMB: byte i of the result is byte idx[i] of
/// the source.
struct BytePerm {
    alignas(64) u8 idx[64] = {};
};

// Planes are kept reversed: bit 511 - i of a plane is position i, so that
// the high half of a carry-less multiply by all ones is an exclusive prefix
// xor in position order. After the in-qword bit transpose, qword q of a
// register holds plane j of its 8 positions in byte j (bit k = position
// 7 - k); kGather moves byte j of qword 7 - t to byte t of qword j.
constexpr BytePerm make_gather() {
    BytePerm p;
    for (unsigned j = 0; j < 8; ++j)
        for (unsigned t = 0; t < 8; ++t)
            p.idx[8 * j + t] = static_cast<u8>(8 * (7 - t) + j);
    return p;
}
// The way back, with each qword's bytes reversed for the inverse bit
// transpose.
constexpr BytePerm make_scatter() {
    BytePerm p;
    for (unsigned q = 0; q < 8; ++q)
        for (unsigned j = 0; j < 8; ++j)
            p.idx[8 * q + 7 - j] = static_cast<u8>(8 * j + 7 - q);
    return p;
}

constexpr BytePerm kGather = make_gather();
constexpr BytePerm kScatter = make_scatter();

#define RECOIL_FNV_AVX512                                                  \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vbmi," \
                          "gfni,vpclmulqdq")))

RECOIL_FNV_AVX512 inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

RECOIL_FNV_AVX512 inline __m512i maj(__m512i a, __m512i b, __m512i c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0xe8);
}

/// 8x8 qword transpose: qword s of y[j] becomes qword j of y[s].
RECOIL_FNV_AVX512 inline void transpose_qwords(__m512i (&y)[8]) {
    const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512i e[4], o[4];
    for (int i = 0; i < 4; ++i) {
        e[i] = _mm512_unpacklo_epi64(y[2 * i], y[2 * i + 1]);
        o[i] = _mm512_unpackhi_epi64(y[2 * i], y[2 * i + 1]);
    }
    __m512i f[2][4];  // rows 4g..4g+3: qwords k and k + 4 of f[g][k]
    for (int g = 0; g < 2; ++g) {
        f[g][0] = _mm512_permutex2var_epi64(e[2 * g], lo, e[2 * g + 1]);
        f[g][1] = _mm512_permutex2var_epi64(o[2 * g], lo, o[2 * g + 1]);
        f[g][2] = _mm512_permutex2var_epi64(e[2 * g], hi, e[2 * g + 1]);
        f[g][3] = _mm512_permutex2var_epi64(o[2 * g], hi, o[2 * g + 1]);
    }
    for (int k = 0; k < 4; ++k) {
        y[k] = _mm512_shuffle_i64x2(f[0][k], f[1][k], 0x44);
        y[k + 4] = _mm512_shuffle_i64x2(f[0][k], f[1][k], 0xee);
    }
}

/// Bit plane j of the block's 512 bytes in b[j] (reversed, see kGather).
RECOIL_FNV_AVX512 inline void to_planes(const __m512i (&in)[8],
                                        __m512i (&b)[8]) {
    // Byte j of each selector qword is 1 << j: the affine transform with
    // the data as the matrix transposes each qword's 8x8 bits.
    const __m512i sel = _mm512_set1_epi64(0x8040201008040201ll);
    const __m512i gather = _mm512_load_si512(kGather.idx);
    for (int s = 0; s < 8; ++s)
        b[s] = _mm512_permutexvar_epi8(
            gather, _mm512_gf2p8affine_epi64_epi8(sel, in[7 - s], 0));
    transpose_qwords(b);
}

/// The inverse of to_planes.
RECOIL_FNV_AVX512 inline void to_bytes(__m512i (&p)[8], __m512i (&out)[8]) {
    const __m512i sel = _mm512_set1_epi64(0x0102040810204080ll);
    const __m512i scatter = _mm512_load_si512(kScatter.idx);
    transpose_qwords(p);
    for (int r = 0; r < 8; ++r)
        out[r] = _mm512_gf2p8affine_epi64_epi8(
            sel, _mm512_permutexvar_epi8(scatter, p[7 - r]), 0);
}

/// Exclusive prefix xor of plane `x` in position order, started from bit j
/// of `l`; leaves bit j of `l` at its value after the block.
RECOIL_FNV_AVX512 inline __m512i scan(__m512i x, unsigned& l, unsigned j) {
    const __m512i ones = _mm512_set1_epi64(-1);
    // The high half of x * ~0 (carry-less) holds, at bit k, the xor of the
    // qword's bits above k: the positions before k's within the qword.
    const __m512i h =
        _mm512_unpackhi_epi64(_mm512_clmulepi64_epi128(x, ones, 0x00),
                              _mm512_clmulepi64_epi128(x, ones, 0x01));
    // Qword parities; qword 7 holds the first 64 positions, so qword q's
    // carry-in is the carry into the block xor the parities above q.
    const unsigned par =
        _mm512_test_epi64_mask(_mm512_xor_si512(h, x), _mm512_set1_epi64(1));
    unsigned carry = par >> 1;
    carry ^= carry >> 1;
    carry ^= carry >> 2;
    carry ^= carry >> 4;
    carry ^= 0u - ((l >> j) & 1u);  // all qwords flip with the block's carry
    l = (l & ~(1u << j)) | (((carry ^ par) & 1u) << j);
    return _mm512_mask_xor_epi64(h, static_cast<__mmask8>(carry), h, ones);
}

/// One chain's walk over the bit planes of one block: the low byte of the
/// state before each byte, as planes e, from the byte planes b and *l, the
/// low byte before the block (left at the low byte after it). Column j of
/// v * 0xb3 sums v_j, v_j-1, v_j-4, v_j-5 and v_j-7 with the carries from
/// column j - 1; k* are those carries.
struct LowByteWalk {
    const __m512i* b = nullptr;
    unsigned* l = nullptr;
    __m512i* e = nullptr;
    __m512i v[7] = {}, k1 = {}, k2 = {}, k3 = {}, k4a = {}, k4b = {}, k5a = {},
            k5b = {}, k5c = {};

    /// b_j ^ f_j: plane j of the byte xor the function of planes 0..j-1.
    template <int J>
    RECOIL_FNV_AVX512 __m512i column() const {
        if constexpr (J == 0) return b[0];
        if constexpr (J == 1) return _mm512_xor_si512(b[1], v[0]);
        if constexpr (J == 2) return xor3(b[2], v[1], k1);
        if constexpr (J == 3) return xor3(b[3], v[2], k2);
        if constexpr (J == 4) return xor3(_mm512_xor_si512(b[4], v[0]), v[3], k3);
        if constexpr (J == 5)
            return xor3(xor3(b[5], v[1], v[0]), v[4], _mm512_xor_si512(k4a, k4b));
        if constexpr (J == 6)
            return xor3(xor3(b[6], v[2], v[1]), v[5], xor3(k5a, k5b, k5c));
        if constexpr (J == 7) {
            // Column 6 has seven bits; column 7 needs only the parity of
            // its carries.
            const __m512i k6 = xor3(maj(v[6], v[5], v[2]), maj(v[1], k5a, k5b),
                                    maj(xor3(v[6], v[5], v[2]),
                                        xor3(v[1], k5a, k5b), k5c));
            return xor3(xor3(b[7], v[3], v[2]), _mm512_xor_si512(v[6], v[0]),
                        k6);
        }
    }

    template <int J>
    RECOIL_FNV_AVX512 void plane() {
        e[J] = scan(column<J>(), *l, J);
        if constexpr (J < 7) v[J] = _mm512_xor_si512(e[J], b[J]);
        if constexpr (J == 1) k1 = _mm512_and_si512(v[1], v[0]);
        if constexpr (J == 2) k2 = maj(v[2], v[1], k1);
        if constexpr (J == 3) k3 = maj(v[3], v[2], k2);
        if constexpr (J == 4) {
            k4a = maj(v[4], v[3], v[0]);
            k4b = _mm512_and_si512(xor3(v[4], v[3], v[0]), k3);
        }
        if constexpr (J == 5) {
            k5a = maj(v[5], v[4], v[1]);
            k5b = maj(v[0], k4a, k4b);
            k5c = _mm512_and_si512(xor3(v[5], v[4], v[1]),
                                   xor3(v[0], k4a, k4b));
        }
    }
};

/// Walk K chains plane by plane together, so their scans overlap. Walks
/// may share an l (consecutive blocks of one chain): plane j of one walk
/// is done with l before the next walk's plane j reads it.
template <int K, int J = 0>
RECOIL_FNV_AVX512 inline void walk_planes(LowByteWalk (&w)[K]) {
    for (auto& x : w) x.template plane<J>();
    if constexpr (J < 7) walk_planes<K, J + 1>(w);
}

/// sum d_i * P^(512-i) over the block, as 8 lanes that add up to it, from
/// the low bytes `lb` and the input bytes `in`.
RECOIL_FNV_AVX512 inline __m512i block_polynomial(const __m512i (&lb)[8],
                                                  const __m512i (&in)[8]) {
    // Byte pairs (L ^ b, L) times (1, -1): d as a signed word.
    const __m512i plus_minus = _mm512_set1_epi16(static_cast<short>(0xff01));
    __m512i digit[4] = {};
    for (int r = 0; r < 8; ++r) {
        const __m512i v = _mm512_xor_si512(lb[r], in[r]);
        const __m512i d[2] = {
            _mm512_maddubs_epi16(_mm512_unpacklo_epi8(v, lb[r]), plus_minus),
            _mm512_maddubs_epi16(_mm512_unpackhi_epi8(v, lb[r]), plus_minus)};
        for (int h = 0; h < 2; ++h)
            for (int m = 0; m < 4; ++m)
                // |d * digit| < 2^23 and 32 of them meet in a dword: exact.
                digit[m] = _mm512_add_epi32(
                    digit[m],
                    _mm512_madd_epi16(
                        d[h], _mm512_load_si512(kFnvWeights.d[r][h][m])));
    }
    __m512i sum = _mm512_setzero_si512();
    for (int m = 0; m < 4; ++m) {
        // Sign-extend both dwords of each qword, add, and weight by 2^(16m).
        const __m512i even =
            _mm512_srai_epi64(_mm512_slli_epi64(digit[m], 32), 32);
        const __m512i odd = _mm512_srai_epi64(digit[m], 32);
        sum = _mm512_add_epi64(
            sum, _mm512_slli_epi64(_mm512_add_epi64(even, odd), 16 * m));
    }
    return sum;
}

/// Fold `Blocks` consecutive blocks at `p` into N chains: low[c] and acc[c]
/// are chain c's low byte and lane sums. Walk k is chain k % N over block
/// k / N.
template <int N, int Blocks>
RECOIL_FNV_AVX512 inline void fnv_round(const u8* p, unsigned (&low)[N],
                                        __m512i (&acc)[N]) {
    constexpr int kWalks = N * Blocks;
    __m512i in[Blocks][8] = {}, b[Blocks][8] = {}, e[kWalks][8] = {};
    for (int bl = 0; bl < Blocks; ++bl, p += kFnvBlock) {
        for (int r = 0; r < 8; ++r) in[bl][r] = _mm512_loadu_si512(p + 64L * r);
        to_planes(in[bl], b[bl]);
    }
    LowByteWalk w[kWalks];
    for (int k = 0; k < kWalks; ++k) {
        w[k].b = b[k / N];
        w[k].l = &low[k % N];
        w[k].e = e[k];
    }
    walk_planes(w);
    const __m512i p512 = _mm512_set1_epi64(
        static_cast<long long>(fnv_prime_power(kFnvBlock)));
    for (int k = 0; k < kWalks; ++k) {  // block order within each chain
        __m512i lb[8] = {};
        to_bytes(e[k], lb);
        acc[k % N] = _mm512_add_epi64(_mm512_mullo_epi64(acc[k % N], p512),
                                      block_polynomial(lb, in[k / N]));
    }
}

/// Fold whole 512-byte blocks at `p` into N states, each its own chain. A
/// round walks two chains at once: both chains of a block, or one chain
/// over two blocks.
template <int N>
RECOIL_FNV_AVX512 void fnv1a_blocks(const u8* p, std::size_t blocks,
                                    u64 (&state)[N]) {
    __m512i acc[N] = {};
    unsigned low[N] = {};
    for (int c = 0; c < N; ++c) {
        acc[c] = _mm512_maskz_set1_epi64(1, static_cast<long long>(state[c]));
        low[c] = static_cast<unsigned>(state[c] & 0xff);
    }
    constexpr std::size_t kStep = 2 / N;  // blocks per round
    for (; blocks >= kStep; blocks -= kStep, p += kStep * kFnvBlock)
        fnv_round<N, kStep>(p, low, acc);
    if (blocks != 0) fnv_round<N, 1>(p, low, acc);
    for (int c = 0; c < N; ++c) {
        // Lane sum in unsigned arithmetic: wrapping is the hash's own.
        alignas(64) u64 lanes[8] = {};
        _mm512_store_si512(lanes, acc[c]);
        u64 h = 0;
        for (const u64 x : lanes) h += x;
        state[c] = h;
    }
}

/// Bytes of an n-byte span the bit-sliced path takes: whole blocks, when
/// this CPU has the path; the serial loop hashes the rest.
std::size_t fnv_block_bytes(std::size_t n) {
    return n >= kFnvBlock && cpu_features().avx512 ? n - n % kFnvBlock : 0;
}

}  // namespace

u64 fnv1a_serial(std::span<const u8> bytes, u64 state) {
    for (u8 b : bytes) {
        state ^= b;
        state *= kFnvPrime;
    }
    return state;
}

u64 fnv1a(std::span<const u8> bytes, u64 state) {
    u64 s[1] = {state};
    const std::size_t fast = fnv_block_bytes(bytes.size());
    if (fast != 0) fnv1a_blocks(bytes.data(), fast / kFnvBlock, s);
    return fnv1a_serial(bytes.subspan(fast), s[0]);
}

u64 fnv1a(std::span<const u8> bytes) { return fnv1a(bytes, kFnvInit); }

void fnv1a2(std::span<const u8> bytes, u64& a, u64& b) {
    u64 s[2] = {a, b};
    const std::size_t fast = fnv_block_bytes(bytes.size());
    if (fast != 0) fnv1a_blocks(bytes.data(), fast / kFnvBlock, s);
    // Locals, not the references: u8 stores may alias a u64, which would
    // force both states through memory on every byte.
    u64 x = s[0];
    u64 y = s[1];
    for (u8 c : bytes.subspan(fast)) {
        x = (x ^ c) * kFnvPrime;
        y = (y ^ c) * kFnvPrime;
    }
    a = x;
    b = y;
}

u64 FnvMemo::fold(std::span<const u8> bytes, u64 state) const {
    if (const auto after = recall(state)) return *after;
    const u64 after = fnv1a(bytes, state);
    const auto low = static_cast<unsigned>(state & 0xff);
    g_[low].store(after - state * pn_, std::memory_order_relaxed);
    known_[low / 64].fetch_or(u64{1} << (low % 64), std::memory_order_release);
    return after;
}

void WireSink::write(ByteBuffer piece) {
    bytes_ += piece.size();
    if (frames_.bytes == 0) {
        digest_ = piece.memo() != nullptr ? piece.memo()->fold(piece, digest_)
                                          : fnv1a(piece, digest_);
    } else {
        // Hold the piece as views, cut at frame boundaries; a frame that
        // fills has a known length and is folded at once.
        for (std::size_t off = 0; off < piece.size();) {
            const auto n = static_cast<std::size_t>(std::min<u64>(
                frames_.bytes - open_bytes_, piece.size() - off));
            open_.push_back(piece.slice(off, n));
            open_bytes_ += n;
            off += n;
            if (open_bytes_ == frames_.bytes)
                sums_.push_back(fold_open_frame(frames_.bytes));
        }
    }
    keep(std::move(piece));
}

u64 WireSink::fold_open_frame(u64 len) {
    u64 frame = frames_.header(static_cast<u32>(sums_.size()), len);
    for (const ByteBuffer& p : open_) fnv1a2(p, digest_, frame);
    open_.clear();
    open_bytes_ = 0;
    return frame;
}

void WireSink::seal() {
    u64 frame = 0;
    u64 room = 0;  // trailer bytes the open frame takes
    if (frames_.bytes != 0) {
        // The open frame's length is known now: the rest of the wire,
        // trailer included, up to a full frame.
        const u64 len = std::min<u64>(frames_.bytes, open_bytes_ + 8);
        room = len - open_bytes_;
        frame = fold_open_frame(len);
    }
    std::vector<u8> trailer;
    put_u64(trailer, digest_);  // the checksum covers everything above
    if (frames_.bytes != 0) {
        const std::span<const u8> t(trailer);
        sums_.push_back(fnv1a(t.first(room), frame));
        if (room < t.size())  // the rest of the trailer is one more frame
            sums_.push_back(fnv1a(
                t.subspan(room),
                frames_.header(static_cast<u32>(sums_.size()),
                               t.size() - room)));
    }
    bytes_ += trailer.size();
    digest_ = fnv1a(trailer, digest_);  // sealed_fnv1a, without re-reading
    keep(ByteBuffer::section(std::move(trailer)));
}

StaticModel RecoilFile::build_static_model() const {
    const auto& p = std::get<StaticPayload>(model);
    return StaticModel(std::span<const u32>(p.freq), prob_bits, 0);
}

IndexedModelSet RecoilFile::build_indexed_model() const {
    const auto& p = std::get<IndexedPayload>(model);
    return IndexedModelSet(std::span<const std::vector<u32>>(p.freqs), prob_bits,
                           std::vector<u8>(p.ids.begin(), p.ids.end()));
}

std::vector<u8> save_recoil_file(const RecoilFile& f) {
    return save_recoil_file(f, f.metadata);
}

std::vector<u8> save_recoil_file(const RecoilFile& f,
                                 const RecoilMetadata& metadata) {
    VectorSink sink;
    save_recoil_file_into(f, metadata, sink);
    return std::move(sink.out);
}

void save_recoil_file_into(const RecoilFile& f, const RecoilMetadata& metadata,
                           WireSink& sink) {
    std::vector<u8> head;
    put_magic(head, kMagic);
    head.push_back(kVersion);
    head.push_back(f.sym_width);
    head.push_back(f.is_indexed() ? 1 : 0);
    head.push_back(static_cast<u8>(f.prob_bits));

    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        put_u32(head, static_cast<u32>(p.freqs.size()));
        for (const auto& freq : p.freqs) put_freq_table(head, freq);
        put_u64(head, p.ids.size());
        sink.write(std::move(head));
        // A borrowed view of the id stream, never a copy.
        sink.write(p.ids.as_bytes());
    } else {
        const auto& p = std::get<RecoilFile::StaticPayload>(f.model);
        put_freq_table(head, p.freq);
        sink.write(std::move(head));
    }

    std::vector<u8> mid;
    const std::vector<u8> meta = serialize_metadata(metadata);
    put_u64(mid, meta.size());
    mid.insert(mid.end(), meta.begin(), meta.end());
    put_u64(mid, f.units.size());
    put_unit_pad(mid, sink.bytes());
    sink.write(std::move(mid));
    sink.write(f.units.as_bytes());
    sink.seal();
}

namespace {

/// Shared parse: owning (keeper null: units/ids copied out of `bytes`) or
/// view mode (keeper owns `bytes`: units/ids borrow the mapped storage).
RecoilFile load_recoil_file_impl(std::span<const u8> bytes,
                                 const std::shared_ptr<const void>& keeper,
                                 bool checksum_verified) {
    Cursor c{checked_payload(bytes, "container", !checksum_verified),
             "container"};
    if (std::memcmp(c.get_bytes(4).data(), kMagic, 4) != 0)
        raise("container: bad magic");
    if (c.get_u8() != kVersion) raise("container: unsupported version");

    RecoilFile f;
    f.sym_width = c.get_u8();
    if (f.sym_width != 1 && f.sym_width != 2) raise("container: bad symbol width");
    const bool indexed = c.get_u8() != 0;
    f.prob_bits = c.get_u8();
    if (f.prob_bits < 1 || f.prob_bits > 16) raise("container: bad prob_bits");

    if (indexed) {
        RecoilFile::IndexedPayload p;
        const u32 k = c.get_u32();
        if (k == 0 || k > 256) raise("container: bad model count");
        p.freqs.resize(k);
        for (auto& freq : p.freqs)
            freq = get_freq_table(c, f.prob_bits, max_alphabet(f.sym_width));
        const u64 ids_len = c.get_u64();
        auto ids = c.get_bytes(ids_len);
        if (keeper != nullptr)
            p.ids = ByteBuffer::view(ids, keeper);
        else
            p.ids = std::vector<u8>(ids.begin(), ids.end());
        f.model = std::move(p);
    } else {
        f.model = RecoilFile::StaticPayload{
            get_freq_table(c, f.prob_bits, max_alphabet(f.sym_width))};
    }

    const u64 meta_len = c.get_u64();
    f.metadata = deserialize_metadata(c.get_bytes(meta_len));

    const u64 unit_count = c.get_u64();
    skip_unit_pad(c);
    f.units = get_unit_buffer(c, unit_count, keeper);
    if (f.metadata.num_units != unit_count)
        raise("container: metadata/bitstream length mismatch");
    if (indexed && std::get<RecoilFile::IndexedPayload>(f.model).ids.size() <
                       f.metadata.num_symbols)
        raise("container: id stream shorter than the symbol stream");
    return f;
}

template <typename TSym>
std::vector<TSym> decode_symbols(const RecoilFile& f, const DecodeTables& t,
                                 ThreadPool* pool, simd::Backend backend) {
    std::vector<TSym> out(f.metadata.num_symbols);
    recoil_decode_into<Rans32, 32, TSym>(std::span<const u16>(f.units), f.metadata, t,
                                         std::span<TSym>(out), pool, nullptr,
                                         simd::SimdRangeFn<TSym>{backend});
    return out;
}

}  // namespace

RecoilFile load_recoil_file(std::span<const u8> bytes) {
    return load_recoil_file_impl(bytes, nullptr, false);
}

RecoilFile load_recoil_file_view(std::span<const u8> bytes,
                                 std::shared_ptr<const void> keeper,
                                 bool checksum_verified) {
    return load_recoil_file_impl(bytes, keeper, checksum_verified);
}

std::vector<u8> decode_file(const RecoilFile& f, ThreadPool* pool,
                            simd::Backend backend) {
    const auto* indexed = std::get_if<RecoilFile::IndexedPayload>(&f.model);
    if (indexed != nullptr && indexed->ids.size() < f.metadata.num_symbols)
        raise("container: id stream shorter than the symbol stream");
    const DecodeModel model =
        indexed != nullptr
            ? DecodeModel(indexed->freqs, f.prob_bits, indexed->ids)
            : DecodeModel({&std::get<RecoilFile::StaticPayload>(f.model).freq, 1},
                          f.prob_bits);
    const DecodeTables t = model.tables(indexed != nullptr ? indexed->ids.data() : nullptr);
    if (f.sym_width == 1) return decode_symbols<u8>(f, t, pool, backend);
    return le_bytes(decode_symbols<u16>(f, t, pool, backend));
}

u64 serialized_file_size(const RecoilFile& f) {
    u64 n = 4 + 4;  // magic; version/sym_width/indexed/prob_bits
    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        n += 4;
        for (const auto& freq : p.freqs) n += 4 + 4 * freq.size();
        n += 8 + p.ids.size();
    } else {
        n += 4 + 4 * std::get<RecoilFile::StaticPayload>(f.model).freq.size();
    }
    n += 8 + serialize_metadata(f.metadata).size();
    n += 8;  // unit count
    n += wire::unit_pad_size(n);
    n += f.units.size() * 2;
    return n + 8;  // checksum
}

template <typename Model>
RecoilFile make_recoil_file(const RecoilEncoded<Rans32, 32>& enc, const Model& model,
                            u8 sym_width) {
    static_assert(std::is_same_v<Model, StaticModel>,
                  "indexed models carry external pdfs; assemble RecoilFile "
                  "with IndexedPayload manually");
    if ((sym_width != 1 && sym_width != 2) || model.alphabet() > max_alphabet(sym_width))
        raise("make_recoil_file: " + std::to_string(model.alphabet()) +
              " symbols do not fit a sym_width of " + std::to_string(sym_width));
    RecoilFile f;
    f.sym_width = sym_width;
    f.prob_bits = model.prob_bits();
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    RecoilFile::StaticPayload p;
    p.freq.resize(model.alphabet());
    for (u32 s = 0; s < model.alphabet(); ++s) p.freq[s] = model.freq(s);
    f.model = std::move(p);
    return f;
}

template RecoilFile make_recoil_file<StaticModel>(const RecoilEncoded<Rans32, 32>&,
                                                  const StaticModel&, u8);

}  // namespace recoil::format
