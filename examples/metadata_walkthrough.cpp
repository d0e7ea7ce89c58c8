// Walkthrough of the paper's worked example (Figures 4-6, Tables 1-2) on a
// real 4-lane encode: shows the recorded renormalization events, a backward
// scan, the per-split metadata with its expectation-difference encoding, and
// the three decode phases with their symbol ranges, then decodes the
// stream with that metadata and exits 1 unless every symbol comes back.

#include <cstdio>

#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "rans/symbol_stats.hpp"
#include "util/xoshiro.hpp"

using namespace recoil;

int main() {
    // Small 4-lane setup so every number is inspectable (the experiments use
    // 32 lanes; the mechanics are identical).
    constexpr u32 kL = 4;
    Xoshiro256 rng(6);
    std::vector<u8> syms(4000);
    for (auto& s : syms) s = static_cast<u8>(rng.below(64));
    StaticModel model(histogram(syms), 11);

    RenormEventList events;
    auto bs = interleaved_encode<Rans32, kL>(std::span<const u8>(syms), model, &events);
    std::printf("encoded %zu symbols -> %zu units; %zu renormalization events\n\n",
                syms.size(), bs.units.size(), events.size());

    std::printf("first events (candidates for split points):\n");
    std::printf("%8s %8s %8s %10s\n", "sym idx", "lane", "offset", "state");
    for (std::size_t i = 0; i < 8 && i < events.size(); ++i) {
        const auto& e = events[i];
        std::printf("%8llu %8u %8llu     0x%04x  (< L = 2^16: Lemma 3.1)\n",
                    static_cast<unsigned long long>(e.sym_index), e.lane,
                    static_cast<unsigned long long>(e.offset), e.state);
    }

    auto splits = plan_splits(events, syms.size(), 4, kL);
    RecoilMetadata meta;
    meta.lanes = kL;
    meta.state_store_bits = 16;
    meta.num_symbols = syms.size();
    meta.num_units = bs.units.size();
    meta.final_states.assign(bs.final_states.begin(), bs.final_states.end());
    meta.splits = splits;

    std::printf("\nsplit points (paper Table 2 layout):\n");
    for (std::size_t i = 0; i < splits.size(); ++i) {
        const auto& sp = splits[i];
        std::printf("split %zu: bitstream offset %llu, sync section [%llu..%llu] "
                    "(%llu symbols)\n",
                    i + 1, static_cast<unsigned long long>(sp.offset),
                    static_cast<unsigned long long>(sp.min_index),
                    static_cast<unsigned long long>(sp.anchor_index),
                    static_cast<unsigned long long>(sp.sync_symbols()));
        const u64 anchor_group = sp.anchor_index / kL;
        std::printf("  %-22s", "intermediate states:");
        for (u32 l = 0; l < kL; ++l) std::printf(" 0x%04x", sp.states[l]);
        std::printf("\n  %-22s", "symbol indices:");
        for (u32 l = 0; l < kL; ++l)
            std::printf(" %6llu", static_cast<unsigned long long>(sp.indices[l]));
        std::printf("\n  %-22s", "group-id differences:");
        for (u32 l = 0; l < kL; ++l)
            std::printf(" %6lld",
                        static_cast<long long>(anchor_group - sp.indices[l] / kL));
        std::printf("   (anchor group %llu)\n",
                    static_cast<unsigned long long>(anchor_group));
    }

    auto bytes = serialize_metadata(meta);
    std::printf("\nserialized metadata: %zu bytes total (%.1f bytes/split beyond "
                "header+final states)\n",
                bytes.size(),
                splits.empty()
                    ? 0.0
                    : (static_cast<double>(bytes.size()) - 32 - kL * 4) /
                          static_cast<double>(splits.size()));

    std::printf("\ndecode phases per thread (paper Fig. 6):\n");
    i64 prev_anchor = -1, prev_min = -1;
    for (u32 k = 0; k < meta.num_splits(); ++k) {
        const bool last = k == meta.num_splits() - 1;
        const i64 anchor = last ? static_cast<i64>(syms.size()) - 1
                                : static_cast<i64>(splits[k].anchor_index);
        const i64 mn = last ? anchor + 1 : static_cast<i64>(splits[k].min_index);
        std::printf("thread %u:", k);
        if (!last)
            std::printf(" sync [%lld..%lld] (discarded);", static_cast<long long>(mn),
                        static_cast<long long>(anchor));
        std::printf(" decode [%lld..%lld];", static_cast<long long>(prev_anchor + 1),
                    static_cast<long long>(last ? anchor : mn - 1));
        if (k > 0)
            std::printf(" cross-boundary [%lld..%lld]", static_cast<long long>(prev_min),
                        static_cast<long long>(prev_anchor));
        std::printf("\n");
        prev_anchor = anchor;
        prev_min = mn;
    }

    const auto decoded = recoil_decode<Rans32, kL, u8>(std::span<const u16>(bs.units),
                                                       meta, model.tables());
    const bool ok = decoded == syms;
    std::printf("\nround trip over %u splits: %s\n", meta.num_splits(),
                ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
}
