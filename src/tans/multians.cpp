#include "tans/multians.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace recoil {

namespace {

struct Entry {
    u64 bitpos;
    u32 slot;
    bool operator==(const Entry&) const = default;
};

/// Decode one segment from `entry` down to `floor_bit`, optionally writing
/// symbols backward from out_end. Returns the exit entry and symbol count.
template <typename TSym>
Entry run_segment(const TansEncoded& enc, const TansTable& table, Entry entry,
                  u64 floor_bit, u64* count, TSym* out_rev_end) {
    BitStackReader r(enc.words, entry.bitpos);
    u32 slot = entry.slot;
    u64 n = 0;
    TSym* w = out_rev_end;
    for (;;) {
        if (r.bitpos() <= floor_bit) {
            // Interior boundaries hand (bitpos, slot) to the next-lower
            // segment. At the stream start the remaining symbols are the
            // zero-bit chain back to the initial slot 0; drain it here
            // (a wrong speculative trajectory hits a non-zero-bit entry
            // instead and bails — that exit is never consumed).
            if (floor_bit > 0 || slot == 0) break;
            const auto& e0 = table.decode_entry(slot);
            if (e0.nbits != 0) break;
            if (w != nullptr) *--w = static_cast<TSym>(e0.sym);
            slot = e0.base;
            ++n;
            continue;
        }
        const auto& e = table.decode_entry(slot);
        // A wrong speculative entry can try to pop past the stream start in
        // the bottom segment; bail out (this exit is never consumed).
        if (r.bitpos() < e.nbits) break;
        if (w != nullptr) *--w = static_cast<TSym>(e.sym);
        slot = e.base + r.pop(e.nbits);
        ++n;
    }
    *count = n;
    return Entry{r.bitpos(), slot};
}

}  // namespace

template <typename TSym>
void multians_decode_into(const TansEncoded& enc, const TansTable& table,
                          std::span<TSym> out, const MultiansOptions& opt,
                          ThreadPool* pool, MultiansStats* stats) {
    RECOIL_CHECK(out.size() >= enc.num_symbols, "multians_decode_into: buffer too small");
    if (enc.num_symbols == 0) return;

    const u64 seg_bits = u64{opt.words_per_segment} * 16;
    const u32 S = static_cast<u32>(std::max<u64>(1, ceil_div<u64>(enc.total_bits, seg_bits)));
    if (stats) stats->segments = S;

    if (S == 1) {
        auto dec = tans_decode<TSym>(enc, table);
        std::copy(dec.begin(), dec.end(), out.begin());
        if (stats) {
            stats->rounds = 1;
            stats->converged = true;
            stats->work_symbols = enc.num_symbols;
        }
        return;
    }

    // Segment i owns bit range (floor_i, ceil_i] with floor_i = i * seg_bits.
    // entries[i] is the (bitpos, slot) at which segment i starts decoding;
    // entries[S-1] is exact from the header, the rest start as guesses.
    std::vector<Entry> entries(S, Entry{0, 0});
    std::vector<Entry> exits(S, Entry{0, 0});
    std::vector<u64> counts(S, 0);
    std::vector<char> dirty(S, 1);
    for (u32 i = 0; i + 1 < S; ++i) entries[i] = Entry{u64{i + 1} * seg_bits, 0};
    entries[S - 1] = Entry{enc.total_bits, enc.final_slot};

    std::atomic<u64> work{0};
    bool converged = false;
    u32 round = 0;
    for (; round < opt.max_rounds && !converged; ++round) {
        auto body = [&](u64 i) {
            if (!dirty[i]) return;
            u64 n = 0;
            exits[i] = run_segment<TSym>(enc, table, entries[i], u64{i} * seg_bits,
                                         &n, nullptr);
            counts[i] = n;
            work.fetch_add(n, std::memory_order_relaxed);
        };
        for_each_index(pool, S, body);
        // Propagate exits downward; a segment is re-decoded only if its
        // entry changed (multians' trajectory-merge check).
        converged = true;
        for (u32 i = 0; i + 1 < S; ++i) {
            dirty[i] = 0;
            if (!(entries[i] == exits[i + 1])) {
                entries[i] = exits[i + 1];
                dirty[i] = 1;
                converged = false;
            }
        }
        dirty[S - 1] = 0;
    }
    if (stats) {
        stats->rounds = round;
        stats->converged = converged;
        stats->work_symbols = work.load();
    }

    if (!converged) {
        // Self-synchronization failed within the budget (the paper's n=16
        // regime); finish correctly, if slowly, with the serial decoder.
        if (stats) stats->serial_fallback = true;
        auto dec = tans_decode<TSym>(enc, table);
        std::copy(dec.begin(), dec.end(), out.begin());
        return;
    }

    // Exits are exact; counts partition the output. Segment S-1 produces the
    // last counts[S-1] symbols, and so on downward.
    std::vector<u64> end_pos(S, 0);
    u64 acc = enc.num_symbols;
    for (u32 i = S; i-- > 0;) {
        end_pos[i] = acc;
        RECOIL_CHECK(acc >= counts[i], "multians: symbol counts exceed total");
        acc -= counts[i];
    }
    RECOIL_CHECK(acc == 0, "multians: symbol counts do not cover the stream");

    for_each_index(pool, S, [&](u64 i) {
        u64 n = 0;
        run_segment<TSym>(enc, table, entries[i], u64{i} * seg_bits, &n,
                          out.data() + end_pos[i]);
    });
    if (stats) stats->work_symbols = work.load() + enc.num_symbols;
}

template void multians_decode_into<u8>(const TansEncoded&, const TansTable&,
                                       std::span<u8>, const MultiansOptions&,
                                       ThreadPool*, MultiansStats*);
template void multians_decode_into<u16>(const TansEncoded&, const TansTable&,
                                        std::span<u16>, const MultiansOptions&,
                                        ThreadPool*, MultiansStats*);

}  // namespace recoil
