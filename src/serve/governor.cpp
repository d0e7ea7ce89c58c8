#include "serve/governor.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "obs/metrics.hpp"

namespace recoil::serve {

void ResourceGovernor::pin(const std::string& name) {
    util::MutexLock lk(mu_);
    pinned_.insert(name);
    futile_usage_.store(0, std::memory_order_relaxed);  // eligibility changed
}

void ResourceGovernor::unpin(const std::string& name) {
    util::MutexLock lk(mu_);
    pinned_.erase(name);
    futile_usage_.store(0, std::memory_order_relaxed);  // eligibility changed
}

bool ResourceGovernor::pinned(const std::string& name) const {
    util::MutexLock lk(mu_);
    return pinned_.contains(name);
}

void ResourceGovernor::note_access(const std::string& name) {
    if (!enabled()) return;  // no tracking cost when there is no budget
    const u64 tick = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Never stall a request behind a running enforce() pass: recency is a
    // heuristic, so a dropped update is cheaper than a blocked serve.
    if (!mu_.try_lock()) return;
    util::MutexLock lk(mu_, util::adopt_lock);
    // Hard cap against unbounded growth from churning asset names when no
    // pressure pass (which prunes against residency) ever runs. Resetting
    // the whole clock is crude but self-correcting: live assets are
    // re-noted by their very next request.
    if (last_access_.size() >= 65536) last_access_.clear();
    last_access_[name] = tick;
}

void ResourceGovernor::set_budget(u64 budget_bytes) {
    // mu_ serializes against a running enforce() pass so the new target is
    // either seen by the whole pass or by the next one, never mid-pass.
    util::MutexLock lk(mu_);
    budget_.store(budget_bytes, std::memory_order_relaxed);
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

    // Rank unload candidates coldest-first. An asset never reported to
    // note_access (preloaded and idle since) has tick 0: coldest of all.
    std::vector<AssetStore::ResidentAsset> residents = store_.residency();

    // The recency clock only needs entries for resident assets; names that
    // left the store (evicted, replaced, unloaded by earlier passes) would
    // otherwise accumulate forever.
    if (last_access_.size() > residents.size()) {
        std::unordered_set<std::string> live;
        live.reserve(residents.size());
        for (const auto& r : residents) live.insert(r.name);
        for (auto it = last_access_.begin(); it != last_access_.end();)
            it = live.contains(it->first) ? std::next(it)
                                          : last_access_.erase(it);
    }
    // Ticks are looked up here, not in the sort comparator: the thread
    // safety analysis checks lambda bodies as standalone functions, so a
    // comparator touching last_access_ (guarded by mu_) would not pass.
    std::vector<std::pair<u64, std::size_t>> order;
    order.reserve(residents.size());
    for (std::size_t i = 0; i < residents.size(); ++i) {
        auto it = last_access_.find(residents[i].name);
        order.emplace_back(it == last_access_.end() ? u64{0} : it->second, i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });

    u64 released = 0;
    for (const auto& ranked : order) {
        const AssetStore::ResidentAsset& r = residents[ranked.second];
        if (cache_.current_bytes() + store_.resident_bytes() <= budget) break;
        if (pinned_.contains(r.name)) {
            ++stats_.skipped_pinned;
            continue;
        }
        if (!r.backed) continue;  // unload would be data loss, not relief
        if (r.external_refs > 0) {
            // An in-flight stream (or serve) pins the asset: unloading
            // frees nothing until it finishes, and forces a reload after.
            ++stats_.skipped_in_use;
            continue;
        }
        if (store_.unload(r.name)) {
            released += r.bytes;
            ++stats_.unloads;
            stats_.bytes_unloaded += r.bytes;
            last_access_.erase(r.name);  // re-learned on reload
        }
    }

    // The store alone could not get under budget (everything left is hot,
    // pinned, in use, or unbacked): the cache absorbs the remainder from
    // its least-recently-used end.
    const u64 resident_now = store_.resident_bytes();
    if (cache_.current_bytes() + resident_now > budget) {
        const u64 cache_target =
            budget > resident_now ? budget - resident_now : 0;
        ++stats_.cache_shrinks;
        cache_.shrink_to(cache_target);
    }
    // Futility latch: a pass that ends still over budget (everything left
    // is pinned, unbacked, or in use) records the stuck usage level so the
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
    reg->register_callback("governor_skipped_pinned_total",
                           MetricKind::counter,
                           poll(&GovernorStats::skipped_pinned));
    reg->register_callback("governor_skipped_in_use_total",
                           MetricKind::counter,
                           poll(&GovernorStats::skipped_in_use));
}

}  // namespace recoil::serve
