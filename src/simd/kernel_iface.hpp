#pragma once
// Contract for vectorized interleaved-decode kernels (§4.4 variations (2) and
// (3)), specialized to the experiment configuration: Rans32 (32-bit states,
// 16-bit units, L = 2^16, prob_bits <= 16 so renormalization is single-step)
// and 32 lanes.
//
// A kernel call decodes one or two runs whole. A run is one stream's decode
// range [lo, hi]: its 32 lane states, its unit buffer and cursor, its tables
// and output base, the positions it stores, and, for a Recoil split, the
// state and group at which each lane joins. Two runs are independent streams
// (two splits, two partitions, or splits of two chunks); the kernel decodes
// them in lockstep, the longer run's remaining groups alone, so the second
// run's gathers issue while the first run's transform chain waits, and each
// run's own pops keep their order.
//
// Discipline (per group; see rans/interleaved.hpp): step i of a run decodes
// group g = hi / 32 - i, down to the group of lo. In each step
//   1. lanes whose recorded index falls in g take their recorded state
//      (it is below L);
//   2. every active lane with state < L pops one unit, ascending lanes
//      taking ascending unit addresses [p-K+1, p], then p -= K;
//   3. the decode transform T' runs on the active lanes;
//   4. active lanes whose position is in [lo, store_hi) store their symbols
//      at out + position.
// A lane is active in g when its position lies in [lo, hi] and, for a
// Recoil split, at or below its recorded index. Because the pops come before
// the transform, a run enters the kernel as a per-symbol cursor at hi
// (rans/interleaved.hpp's decode_positions) and leaves it as one at lo: the
// two disciplines pop the same units in the same global order, and nothing
// else runs before or after the kernel.
//
// Masks are needed only in a run's synchronization groups, the seam group
// at store_hi, a ragged top and the bottom group (GroupSteps::masked); the
// interior groups, where every lane is active and stores, take the unmasked
// body. Per-position ids are read for active lanes only, so a run touches
// ids on [lo, hi] alone, as the scalar loop does.
//
// Pops take vector loads of 16 (AVX512) or 8 (AVX2) units. Each run tests
// its own buffer edges; a run whose loads would leave its unit buffer pops
// that group through scalar_group_pops instead, which raises a typed
// underflow error exactly as the scalar loop does.

#include <algorithm>
#include <span>
#include <type_traits>

#include "rans/static_model.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::simd {

/// One stream's share of a kernel call.
template <typename TSym>
struct GroupRun {
    u32* states;             ///< 32 lane states, updated in place
    const u16* units;
    u64 num_units;
    i64* p;                  ///< next unit to pop, updated in place
    const DecodeTables* t;
    TSym* out;               ///< symbol i goes to out[i]
    u64 lo;                  ///< lowest position to decode
    u64 hi;                  ///< highest position to decode
    u64 store_hi;            ///< positions [lo, store_hi) are stored
    /// nullptr for a run whose lanes are all live at hi. Otherwise lane l
    /// takes entry_states[l] in step entry_steps[l], i.e. in group
    /// hi / 32 - entry_steps[l], and is live from there down.
    const u32* entry_states = nullptr;
    const u32* entry_steps = nullptr;
};

/// Decode each run (one or two) from hi down to lo.
template <typename TSym>
using GroupKernel = void (*)(std::span<const GroupRun<TSym>> runs);

/// Bit l set for each lane l of the group at position `base` (a multiple of
/// 32) whose position base + l lies in [from, to).
inline u32 lanes_between(u64 base, u64 from, u64 to) {
    const u64 a = from > base ? std::min<u64>(from - base, 32) : 0;
    const u64 b = to > base ? std::min<u64>(to - base, 32) : 0;
    return b > a ? static_cast<u32>((u64{1} << b) - (u64{1} << a)) : 0;
}

/// A run's step schedule, shared by every backend: step i decodes group
/// top - i, for i in [0, steps). Steps in [mask_top, mask_bot) are interior
/// groups: every lane live, inside [lo, hi] and stored.
struct GroupSteps {
    u64 lo, hi, store_hi;
    u64 top, steps, mask_top, mask_bot;
    u64 sync_steps;  ///< steps that may take entry states (0 without an entry)

    template <typename TSym>
    explicit GroupSteps(const GroupRun<TSym>& r)
        : lo(r.lo), hi(r.hi), store_hi(r.store_hi), top(r.hi / 32),
          steps(top - r.lo / 32 + 1), sync_steps(0) {
        // Interior groups g: 32g >= lo and 32g + 32 <= store_hi. Below
        // store_hi every lane is live (an entry's min_index bounds it).
        const u64 a = (lo + 31) / 32, b = store_hi / 32;
        mask_top = b > a ? top + 1 - b : steps;
        mask_bot = b > a ? top + 1 - a : steps;
        if (r.entry_steps != nullptr)
            for (int l = 0; l < 32; ++l)
                sync_steps = std::max<u64>(sync_steps, u64{r.entry_steps[l]} + 1);
    }

    bool masked(u64 i) const noexcept { return i < mask_top || i >= mask_bot; }
    u64 base(u64 i) const noexcept { return (top - i) * 32; }
    /// Step i's lanes inside [lo, hi], and inside [lo, store_hi).
    u32 in_range(u64 i) const noexcept { return lanes_between(base(i), lo, hi + 1); }
    u32 storing(u64 i) const noexcept { return lanes_between(base(i), lo, store_hi); }
};

/// Pop one unit for every lane in `active` with state < L: ascending needy
/// lanes take ascending addresses ending at p. The kernels' scalar fallback
/// near the ends of the unit buffer. A group that needs more units than
/// remain below p is a typed error, as in the scalar decode_positions.
inline void scalar_group_pops(u32* x, const u16* units, i64& p, u32 active) {
    u32 needy[32];
    int k = 0;
    for (u32 lane = 0; lane < 32; ++lane) {
        if ((active >> lane & 1) != 0 && x[lane] < (u32{1} << 16)) needy[k++] = lane;
    }
    RECOIL_CHECK(p + 1 >= k, "scalar_group_pops: bitstream underflow");
    const i64 base = p - k + 1;
    for (int i = 0; i < k; ++i) {
        x[needy[i]] = (x[needy[i]] << 16) | units[base + i];
    }
    p -= k;
}

/// The step loop of the vector backends. `Regs` holds one run in registers:
/// built from its GroupRun, it exposes its GroupSteps `s`, prepare(i) (the
/// masks and entries of step i), pop<kMasked>(), transform<kMasked>(i),
/// store<kMasked>(i) and write_back(run). Two runs share their first
/// min(steps) steps in lockstep, every run's pops and gathers issuing before
/// any run's stores, and the longer run finishes alone. Masked and interior
/// steps run in separate loops, so the interior loop holds the unmasked body
/// alone.
template <typename Regs, typename TSym>
void run_group_steps(std::span<const GroupRun<TSym>> runs) {
    auto both = [](auto masked, Regs& a, Regs& b, u64 i) {
        constexpr bool kMasked = decltype(masked)::value;
        if constexpr (kMasked) {
            a.prepare(i);
            b.prepare(i);
        }
        a.template pop<kMasked>();
        b.template pop<kMasked>();
        a.template transform<kMasked>(i);
        b.template transform<kMasked>(i);
        a.template store<kMasked>(i);
        b.template store<kMasked>(i);
    };
    auto one = [](auto masked, Regs& a, u64 i) {
        constexpr bool kMasked = decltype(masked)::value;
        if constexpr (kMasked) a.prepare(i);
        a.template pop<kMasked>();
        a.template transform<kMasked>(i);
        a.template store<kMasked>(i);
    };
    using Masked = std::true_type;
    using Plain = std::false_type;
    u64 done = 0;
    if (runs.size() == 2) {
        Regs a(runs[0]), b(runs[1]);
        done = std::min(a.s.steps, b.s.steps);
        const u64 from = std::min(std::max(a.s.mask_top, b.s.mask_top), done);
        const u64 to = std::max(from, std::min({a.s.mask_bot, b.s.mask_bot, done}));
        u64 i = 0;
        for (; i < from; ++i) both(Masked{}, a, b, i);
        for (; i < to; ++i) both(Plain{}, a, b, i);
        for (; i < done; ++i) both(Masked{}, a, b, i);
        a.write_back(runs[0]);
        b.write_back(runs[1]);
    }
    for (const GroupRun<TSym>& r : runs) {
        Regs a(r);
        if (done >= a.s.steps) continue;
        u64 i = done;
        for (; i < a.s.mask_top; ++i) one(Masked{}, a, i);
        for (; i < a.s.mask_bot; ++i) one(Plain{}, a, i);
        for (; i < a.s.steps; ++i) one(Masked{}, a, i);
        a.write_back(r);
    }
}

/// Reference (portable) group kernel, one run after the other: the
/// contract above, lane by lane, and the oracle of the vector backends.
template <typename TSym>
void scalar_decode_groups(std::span<const GroupRun<TSym>> runs);

// Architecture-specific kernels; compiled only when the build enables them
// (runtime-dispatched via simd/dispatch.hpp).
#if defined(RECOIL_HAVE_AVX2_BUILD)
template <typename TSym>
void avx2_decode_groups(std::span<const GroupRun<TSym>> runs);
#endif
#if defined(RECOIL_HAVE_AVX512_BUILD)
template <typename TSym>
void avx512_decode_groups(std::span<const GroupRun<TSym>> runs);
#endif

}  // namespace recoil::simd
