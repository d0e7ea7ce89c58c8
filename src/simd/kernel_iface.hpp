#pragma once
// Contract for vectorized interleaved-decode kernels (§4.4 variations (2) and
// (3)), specialized to the experiment configuration: Rans32 (32-bit states,
// 16-bit units, L = 2^16, prob_bits <= 16 so renormalization is single-step)
// and 32 lanes.
//
// A kernel call decodes up to kMaxRangeRuns runs whole. A run is one
// stream's decode range [lo, hi]: its 32 lane states, its unit buffer and
// cursor, its tables and output base, the positions it stores, and, for a
// Recoil split, the state and group at which each lane joins. The runs of a
// call are independent streams (splits, partitions, or splits of several
// chunks); a vector kernel decodes them in lockstep, so one run's gathers
// issue while another's transform chain waits, and each run's own pops keep
// their order. When the shortest run ends it drops out and the rest go on
// together. run_group_steps below is that step loop for every vector
// backend; each backend gives it one body per run count and picks how many
// runs share a lockstep: up to four on the AVX512 kernel with one-gather
// (packed) tables, two on two-gather tables and on AVX2.
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
// steps interior to every run in lockstep take the unmasked body.
// Per-position ids are read for active lanes only, so a run touches ids on
// [lo, hi] alone, as the scalar loop does.
//
// Pops load at most 16 (AVX512) or 8 (AVX2) units past a vector's first.
// Each run tests its own buffer edges; a run whose loads would leave its
// unit buffer pops that group through scalar_group_pops instead, which
// raises a typed underflow error exactly as the scalar loop does.

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

#include "rans/interleaved.hpp"
#include "rans/static_model.hpp"
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

/// Decode each run (at most kMaxRangeRuns) from hi down to lo.
template <typename TSym>
using GroupKernel = void (*)(std::span<const GroupRun<TSym>> runs);

/// Raises the typed error of a group that needs more units than remain
/// below its cursor. Out of line in simd/dispatch.cpp, so no kernel object
/// carries the error's code.
[[noreturn]] void group_pops_underflow();

// The helpers below have internal linkage: each kernel object keeps its own
// copies, built for its ISA, which no other object binds to.
namespace {

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
    u64 lo = 0, hi = 0, store_hi = 0;
    u64 top = 0, steps = 0, mask_top = 0, mask_bot = 0;
    u64 sync_steps = 0;  ///< steps that may take entry states (0 without an entry)

    GroupSteps() = default;
    template <typename TSym>
    explicit GroupSteps(const GroupRun<TSym>& r)
        : lo(r.lo), hi(r.hi), store_hi(r.store_hi), top(r.hi / 32),
          steps(top - r.lo / 32 + 1) {
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
/// remain below p is a typed error, as in the scalar decode_positions. It
/// is inlined into every kernel body: an out-of-line call in the pop costs
/// the AVX2 single-stream loop about 12%, and GCC's own choice varies from
/// body to body.
__attribute__((always_inline)) inline void scalar_group_pops(u32* x, const u16* units, i64& p,
                                                             u32 active) {
    u32 needy[32];
    int k = 0;
    for (u32 lane = 0; lane < 32; ++lane) {
        if ((active >> lane & 1) != 0 && x[lane] < (u32{1} << 16)) needy[k++] = lane;
    }
    if (p + 1 < k) group_pops_underflow();
    const i64 base = p - k + 1;
    for (int i = 0; i < k; ++i) {
        x[needy[i]] = (x[needy[i]] << 16) | units[base + i];
    }
    p -= k;
}

/// A run and its schedule, as a lockstep body reads them.
template <typename TSym>
struct ScheduledRun {
    const GroupRun<TSym>* run = nullptr;
    GroupSteps s;
};

/// The steps a lockstep body advances its runs through: [from, to), of
/// which [plain_from, plain_to) are interior to every one of them.
struct StepWindow {
    u64 from, plain_from, plain_to, to;
};

/// f(std::integral_constant<std::size_t, n>{}) for n in [1, kWidth].
template <std::size_t kWidth, typename F>
void with_width(std::size_t n, const F& f) {
    if constexpr (kWidth > 1) {
        if (n < kWidth) return with_width<kWidth - 1>(n, f);
    }
    f(std::integral_constant<std::size_t, kWidth>{});
}

/// The step loop of the vector backends. Up to kWidth runs advance in
/// lockstep: body(live, window, width) decodes the steps [window.from,
/// window.to) of the `width` runs live[0..width) together, where `width` is
/// a std::integral_constant, so a backend gives each width its own body. The
/// runs go in order of their step counts; when the shortest ends it drops
/// out and the rest continue one run narrower. More than kWidth runs go
/// kWidth at a time.
template <std::size_t kWidth, typename TSym, typename Body>
void run_group_steps(std::span<const GroupRun<TSym>> runs, const Body& body) {
    static_assert(kWidth >= 1 && kWidth <= kMaxRangeRuns);
    for (std::size_t first = 0; first < runs.size(); first += kWidth) {
        const std::size_t n = std::min(kWidth, runs.size() - first);
        ScheduledRun<TSym> sched[kWidth];
        const ScheduledRun<TSym>* live[kWidth];
        for (std::size_t k = 0; k < n; ++k) {
            sched[k] = {&runs[first + k], GroupSteps(runs[first + k])};
            std::size_t j = k;
            for (; j > 0 && live[j - 1]->s.steps > sched[k].s.steps; --j) live[j] = live[j - 1];
            live[j] = &sched[k];
        }
        u64 done = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const u64 to = live[k]->s.steps;
            if (to <= done) continue;
            u64 a = done, b = to;
            for (std::size_t j = k; j < n; ++j) {
                a = std::max(a, live[j]->s.mask_top);
                b = std::min(b, live[j]->s.mask_bot);
            }
            a = std::min(a, to);
            const StepWindow w{done, a, std::max(a, b), to};
            with_width<kWidth>(n - k, [&](auto width) { body(live + k, w, width); });
            done = to;
        }
    }
}

}  // namespace

/// Reference (portable) group kernel, one run after the other: the
/// contract above, lane by lane, and the oracle of the vector backends.
template <typename TSym>
void scalar_decode_groups(std::span<const GroupRun<TSym>> runs);

// Architecture-specific kernels; compiled only when the build enables them
// (runtime-dispatched via simd/dispatch.hpp).
#if defined(RECOIL_HAVE_AVX2_BUILD)
void avx2_decode_groups(std::span<const GroupRun<u8>> runs);
void avx2_decode_groups(std::span<const GroupRun<u16>> runs);
#endif
#if defined(RECOIL_HAVE_AVX512_BUILD)
void avx512_decode_groups(std::span<const GroupRun<u8>> runs);
void avx512_decode_groups(std::span<const GroupRun<u16>> runs);
#endif

}  // namespace recoil::simd
