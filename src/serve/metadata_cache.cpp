#include "serve/metadata_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace recoil::serve {

SharedResponse MetadataCache::get(const std::string& asset_key,
                                  u32 parallelism, bool count_miss) {
    util::MutexLock lk(mu_);
    auto it = map_.find(Key{asset_key, parallelism});
    if (it == map_.end()) {
        if (count_miss) ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    stats_.hit_bytes += it->second.response->size();
    order_.splice(order_.begin(), order_, it->second.lru);
    return it->second.response;
}

void MetadataCache::put(const std::string& asset_key, u32 parallelism,
                        SharedResponse response) {
    RECOIL_CHECK(response != nullptr, "cache put: null payload");
    util::MutexLock lk(mu_);
    Key key{asset_key, parallelism};
    auto it = map_.find(key);
    const u64 size = response->owned_bytes();
    if (size > capacity_) {  // would evict everything for nothing
        ++stats_.rejected;
        // A resident entry under this key is now known stale: serving it
        // would hand out superseded bytes, so it goes too (not an eviction
        // — nothing displaced it for space).
        if (it != map_.end()) erase_locked(it);
        return;
    }
    if (it != map_.end()) {
        set_bytes_locked(stats_.bytes - it->second.response->owned_bytes() +
                         size);
        it->second.response = std::move(response);
        order_.splice(order_.begin(), order_, it->second.lru);
    } else {
        set_bytes_locked(stats_.bytes + size);
        it = map_.emplace(std::move(key), Entry{std::move(response), {}})
                 .first;
        order_.push_front(&it->first);
        it->second.lru = order_.begin();
        ++stats_.insertions;
    }
    stats_.entries = map_.size();
    // Peak is sampled before eviction trims back under capacity: it reports
    // the most bytes the cache ever actually held.
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
    evict_until_locked(capacity_);
}

MetadataCache::Map::iterator MetadataCache::erase_locked(Map::iterator it) {
    set_bytes_locked(stats_.bytes - it->second.response->owned_bytes());
    order_.erase(it->second.lru);
    it = map_.erase(it);
    stats_.entries = map_.size();
    return it;
}

void MetadataCache::evict_until_locked(u64 target_bytes) {
    while (stats_.bytes > target_bytes && !order_.empty()) {
        erase_locked(map_.find(*order_.back()));
        ++stats_.evictions;
    }
}

void MetadataCache::erase_asset(const std::string& asset_key) {
    util::MutexLock lk(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
        const std::string& a = it->first.asset;
        const bool derived = a.size() > asset_key.size() &&
                             a.compare(0, asset_key.size(), asset_key) == 0 &&
                             a[asset_key.size()] == '\n';
        if (a == asset_key || derived) {
            it = erase_locked(it);
        } else {
            ++it;
        }
    }
}

void MetadataCache::shrink_to(u64 target_bytes) {
    util::MutexLock lk(mu_);
    evict_until_locked(target_bytes);
}

void MetadataCache::clear() {
    util::MutexLock lk(mu_);
    map_.clear();
    order_.clear();
    set_bytes_locked(0);
    stats_.entries = 0;
}

CacheStats MetadataCache::stats() const {
    util::MutexLock lk(mu_);
    return stats_;
}

void MetadataCache::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    using obs::MetricKind;
    // Polled callbacks reading the same stats_ the stats() API reports: the
    // registry view is bit-identical by construction and the cache hot path
    // gains no extra writes.
    auto poll = [this](u64 CacheStats::* field) {
        return [this, field] { return stats().*field; };
    };
    reg->register_callback("cache_hits_total", MetricKind::counter,
                           poll(&CacheStats::hits));
    reg->register_callback("cache_misses_total", MetricKind::counter,
                           poll(&CacheStats::misses));
    reg->register_callback("cache_hit_bytes_total", MetricKind::counter,
                           poll(&CacheStats::hit_bytes));
    reg->register_callback("cache_insertions_total", MetricKind::counter,
                           poll(&CacheStats::insertions));
    reg->register_callback("cache_evictions_total", MetricKind::counter,
                           poll(&CacheStats::evictions));
    reg->register_callback("cache_rejected_total", MetricKind::counter,
                           poll(&CacheStats::rejected));
    reg->register_callback("cache_peak_bytes", MetricKind::gauge,
                           poll(&CacheStats::peak_bytes));
    reg->register_callback("cache_bytes", MetricKind::gauge,
                           poll(&CacheStats::bytes));
    reg->register_callback("cache_entries", MetricKind::gauge,
                           poll(&CacheStats::entries));
    reg->register_callback("cache_capacity_bytes", MetricKind::gauge,
                           [this] { return capacity_bytes(); });
}

void MetadataCache::set_bytes_locked(u64 bytes) {
    stats_.bytes = bytes;
    bytes_now_.store(bytes, std::memory_order_relaxed);
}

}  // namespace recoil::serve
