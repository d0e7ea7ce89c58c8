#include "serve/governor.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"

namespace recoil::serve {

ResourceGovernor::ResourceGovernor(AssetStore& store, MetadataCache& cache,
                                   GovernorOptions opt)
    : store_(store), cache_(cache), budget_(opt.budget_bytes) {
    store_.on_retire(
        [&cache](const Asset& gone) { cache.erase_asset(gone.instance()); });
    store_.track_recency(opt.budget_bytes != 0);
}

void ResourceGovernor::set_budget(u64 budget_bytes) {
    // mu_ serializes against a running enforce() pass so the new target is
    // either seen by the whole pass or by the next one, never mid-pass.
    util::MutexLock lk(mu_);
    budget_.store(budget_bytes, std::memory_order_relaxed);
    store_.track_recency(budget_bytes != 0);
    // Re-arm the futility latch: the stuck level was measured against the
    // old budget and means nothing under the new one.
    futile_usage_.store(0, std::memory_order_relaxed);
}

u64 ResourceGovernor::enforce() {
    if (!enabled()) return 0;
    util::MutexLock lk(mu_);
    const u64 budget = budget_.load(std::memory_order_relaxed);
    if (cache_.current_bytes() + store_.resident_bytes() <= budget) {
        futile_usage_.store(0, std::memory_order_relaxed);
        return 0;
    }
    ++stats_.enforcements;

    // Rank unload candidates coldest-first. An asset no request has
    // resolved (preloaded and idle since) has tick 0: coldest of all.
    std::vector<AssetStore::ResidentAsset> residents = store_.residency();
    std::stable_sort(residents.begin(), residents.end(),
                     [](const auto& a, const auto& b) {
                         return a.last_used < b.last_used;
                     });

    u64 released = 0;
    for (const AssetStore::ResidentAsset& r : residents) {
        if (cache_.current_bytes() + store_.resident_bytes() <= budget) break;
        if (!r.backed) continue;  // unload would be data loss, not relief
        if (r.external_refs > 0) {
            // An in-flight stream (or serve) pins the asset: unloading
            // frees nothing until it finishes, and forces a reload after.
            ++stats_.skipped_in_use;
            continue;
        }
        if (store_.unload(r.name)) {  // its cache entries leave with it
            released += r.bytes;
            ++stats_.unloads;
            stats_.bytes_unloaded += r.bytes;
        }
    }

    // The store alone could not get under budget (everything left is hot,
    // in use, or unbacked): the cache absorbs the remainder from
    // its least-recently-used end.
    const u64 resident_now = store_.resident_bytes();
    if (cache_.current_bytes() + resident_now > budget) {
        const u64 cache_target =
            budget > resident_now ? budget - resident_now : 0;
        ++stats_.cache_shrinks;
        cache_.shrink_to(cache_target);
    }
    // Futility latch: a pass that ends still over budget (everything left
    // is unbacked or in use) records the stuck usage level so the
    // hot path's pressure_actionable() stops re-running identical passes
    // until something changes.
    const u64 usage_now = cache_.current_bytes() + store_.resident_bytes();
    futile_usage_.store(usage_now > budget ? usage_now : 0,
                        std::memory_order_relaxed);
    return released;
}

GovernorStats ResourceGovernor::stats() const {
    util::MutexLock lk(mu_);
    GovernorStats s = stats_;
    s.budget_bytes = budget_.load(std::memory_order_relaxed);
    s.cache_bytes = cache_.current_bytes();
    s.resident_bytes = store_.resident_bytes();
    return s;
}

void ResourceGovernor::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    using obs::MetricKind;
    auto poll = [this](u64 GovernorStats::* field) {
        return [this, field] { return stats().*field; };
    };
    reg->register_callback("governor_budget_bytes", MetricKind::gauge,
                           poll(&GovernorStats::budget_bytes));
    reg->register_callback("governor_cache_bytes", MetricKind::gauge,
                           poll(&GovernorStats::cache_bytes));
    reg->register_callback("governor_resident_bytes", MetricKind::gauge,
                           poll(&GovernorStats::resident_bytes));
    reg->register_callback("governor_enforcements_total", MetricKind::counter,
                           poll(&GovernorStats::enforcements));
    reg->register_callback("governor_unloads_total", MetricKind::counter,
                           poll(&GovernorStats::unloads));
    reg->register_callback("governor_bytes_unloaded_total",
                           MetricKind::counter,
                           poll(&GovernorStats::bytes_unloaded));
    reg->register_callback("governor_cache_shrinks_total", MetricKind::counter,
                           poll(&GovernorStats::cache_shrinks));
    reg->register_callback("governor_skipped_in_use_total",
                           MetricKind::counter,
                           poll(&GovernorStats::skipped_in_use));
}

}  // namespace recoil::serve
