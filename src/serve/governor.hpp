#pragma once
// Resource governance for the serve stack: one global byte budget spanning
// the response cache AND the asset store's resident masters (heap or mmap),
// so "serve this corpus from N bytes of RAM" is a single knob instead of
// two capacities that have to be guessed in ratio. Cache entries view
// their asset's payload and are charged only their own structural bytes,
// so an asset and the entries that view it are one unit: the governor's
// retire hook drops an asset's entries as it leaves memory (unloaded,
// replaced or erased), and no entry ever keeps payload alive that the
// budget no longer counts. Under pressure the governor UNLOADS cold
// demand-loadable assets — AssetStore::unload keeps the backing copy and
// the generation, so the next request simply re-mmaps and recombines — and,
// if the store alone cannot get under budget, shrinks the cache from its
// least-recently-used end.
//
// What the governor will not do:
//   - unload an asset that is not in the backing store (that would be data
//     loss, not memory-pressure relief);
//   - unload an asset with live external references — an in-flight stream
//     pins its asset (and therefore its mmap) via shared_ptr, so unloading
//     would free nothing and force a pointless reload. The reference
//     sample is racy by nature: a stream acquiring the asset between the
//     snapshot and the unload keeps its pinned buffers and streams to
//     completion bit-exactly (the unload only drops the store's map entry);
//     the cost of losing that race is one re-mmap, never corruption.

#include <atomic>
#include <string>
#include <unordered_map>

#include "serve/asset_store.hpp"
#include "serve/metadata_cache.hpp"
#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

struct GovernorOptions {
    /// Global budget over cache bytes + resident store bytes. 0 disables
    /// the governor entirely (over_budget() is always false).
    u64 budget_bytes = 0;
};

/// Counters are cumulative; the `cache_bytes`/`resident_bytes` gauges are
/// live samples taken when stats() is called (usage may have regrown since
/// the last pass — judge a pass by the unload/shrink counters, not by the
/// gauges).
struct GovernorStats {
    u64 budget_bytes = 0;
    u64 cache_bytes = 0;     ///< live cache usage at stats() time
    u64 resident_bytes = 0;  ///< live store usage at stats() time
    u64 enforcements = 0;    ///< enforce() passes that found pressure
    u64 unloads = 0;         ///< assets unloaded
    u64 bytes_unloaded = 0;  ///< master bytes released by unloads
    u64 cache_shrinks = 0;   ///< passes that had to shrink the cache too
    u64 skipped_in_use = 0;  ///< candidates with live external references
};

class ResourceGovernor {
public:
    /// Installs `store`'s retire hook: an asset leaving memory takes its
    /// cache entries with it, whether or not a budget is set.
    ResourceGovernor(AssetStore& store, MetadataCache& cache,
                     GovernorOptions opt);

    bool enabled() const noexcept {
        return budget_.load(std::memory_order_relaxed) != 0;
    }
    u64 budget_bytes() const noexcept {
        return budget_.load(std::memory_order_relaxed);
    }

    /// Retarget the global budget at runtime — the shard-router's rebalance
    /// coordinator moves budget between shards through this. Re-arms the
    /// futility latch (a bigger budget may relieve pressure, a smaller one
    /// creates new pressure worth a pass); takes effect on the next
    /// over_budget() probe / enforce() pass. 0 disables the governor.
    void set_budget(u64 budget_bytes) RECOIL_EXCLUDES(mu_);

    /// Recency signal: the server reports every request's asset here; the
    /// enforce() pass ranks unload candidates coldest-first by this clock.
    /// Assets never reported (preloaded, idle) rank coldest of all.
    void note_access(const std::string& name) RECOIL_EXCLUDES(mu_);

    /// Cheap pressure probe (two relaxed atomic loads) for the hot path.
    bool over_budget() const noexcept {
        const u64 budget = budget_.load(std::memory_order_relaxed);
        return budget != 0 &&
               cache_.current_bytes() + store_.resident_bytes() > budget;
    }

    /// over_budget() AND a pass has a chance of helping. When a pass ends
    /// still over budget (everything left is unbacked or in use), the
    /// stuck usage level is remembered and the hot path stops paying for
    /// futile O(residents) passes until usage grows past it, the budget
    /// changes, or an explicit enforce() runs (which always executes — and
    /// re-arms the probe if it manages to relieve anything). An asset
    /// can also become reclaimable with NO usage change (a stream finishes
    /// and drops the last external reference), so a latched governor still
    /// retries once every kLatchedRetryPeriod probes — bounded background
    /// cost, bounded reclaim delay.
    bool pressure_actionable() const noexcept {
        if (!over_budget()) return false;
        const u64 stuck = futile_usage_.load(std::memory_order_relaxed);
        if (stuck == 0 ||
            cache_.current_bytes() + store_.resident_bytes() > stuck)
            return true;
        return latched_probes_.fetch_add(1, std::memory_order_relaxed) %
                   kLatchedRetryPeriod ==
               kLatchedRetryPeriod - 1;
    }

    /// One governance pass: if usage exceeds the budget, unload cold
    /// eligible assets coldest-first until under budget, then — only if
    /// the store alone could not get there — shrink the cache to whatever
    /// share of the budget the remaining residents leave. Serialized
    /// internally; concurrent callers queue. Returns bytes released.
    u64 enforce() RECOIL_EXCLUDES(mu_);

    GovernorStats stats() const RECOIL_EXCLUDES(mu_);

    /// Publish this governor through `reg` as polled governor_* metrics;
    /// callbacks read the same counters stats() reports.
    void bind_metrics(obs::MetricsRegistry* reg);

private:
    AssetStore& store_;
    MetadataCache& cache_;
    GovernorOptions opt_;
    /// Live budget (opt_.budget_bytes is only the initial value). Atomic so
    /// the hot-path probes read it lock-free while set_budget retargets it.
    std::atomic<u64> budget_;
    mutable util::Mutex mu_;
    std::unordered_map<std::string, u64> last_access_ RECOIL_GUARDED_BY(mu_);
    /// clock_/futile_usage_/latched_probes_ are the documented lock-free
    /// escapes: over_budget()/pressure_actionable() run on the serve hot
    /// path and must never contend with a running enforce() pass.
    std::atomic<u64> clock_{0};
    /// Usage level a pass ended at while still over budget (0 = none):
    /// the futility latch behind pressure_actionable().
    std::atomic<u64> futile_usage_{0};
    static constexpr u64 kLatchedRetryPeriod = 64;
    mutable std::atomic<u64> latched_probes_{0};
    GovernorStats stats_ RECOIL_GUARDED_BY(mu_);
};

}  // namespace recoil::serve
