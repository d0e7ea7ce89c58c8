#include "serve/metadata_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace recoil::serve {

SharedResponse MetadataCache::get(const ResponseKey& key,
                                  bool count_miss) const {
    SharedResponse hit;
    {  // held for the lookup and the stamp only: the counters need no lock
        util::ReaderMutexLock lk(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.tick.store(next_tick(), std::memory_order_relaxed);
            hit = it->second.response;
        }
    }
    if (hit == nullptr) {
        if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_bytes_.fetch_add(hit->size(), std::memory_order_relaxed);
    return hit;
}

void MetadataCache::put(const ResponseKey& key, SharedResponse response) {
    RECOIL_CHECK(response != nullptr, "cache put: null payload");
    util::WriterMutexLock lk(mu_);
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
        it->second.tick.store(next_tick(), std::memory_order_relaxed);
    } else {
        set_bytes_locked(stats_.bytes + size);
        map_.try_emplace(key, std::move(response), next_tick());
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
    it = map_.erase(it);
    stats_.entries = map_.size();
    return it;
}

void MetadataCache::evict_until_locked(u64 target_bytes) {
    while (stats_.bytes > target_bytes) {
        if (victims_.empty()) {  // refill: the oldest eighth, oldest last
            for (const auto& [key, entry] : map_)
                victims_.emplace_back(
                    entry.tick.load(std::memory_order_relaxed), key);
            const std::size_t batch = std::min(
                victims_.size(), std::max<std::size_t>(64, victims_.size() / 8));
            std::partial_sort(
                victims_.rbegin(), victims_.rbegin() + batch, victims_.rend(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
            victims_.erase(victims_.begin(), victims_.end() - batch);
        }
        // Entries outside the buffer were newer than every candidate at the
        // refill, and a touch since takes a newer tick still: the back
        // candidate whose tick is unchanged is the least recently used.
        const auto [tick, key] = victims_.back();
        victims_.pop_back();
        auto it = map_.find(key);
        if (it == map_.end() ||
            it->second.tick.load(std::memory_order_relaxed) != tick)
            continue;  // dropped or touched since the refill
        erase_locked(it);
        ++stats_.evictions;
    }
}

void MetadataCache::erase_asset(u64 asset) {
    util::WriterMutexLock lk(mu_);
    for (auto it = map_.begin(); it != map_.end();)
        it = it->first.asset == asset ? erase_locked(it) : std::next(it);
}

void MetadataCache::shrink_to(u64 target_bytes) {
    util::WriterMutexLock lk(mu_);
    evict_until_locked(target_bytes);
}

void MetadataCache::clear() {
    util::WriterMutexLock lk(mu_);
    map_.clear();
    victims_.clear();
    set_bytes_locked(0);
    stats_.entries = 0;
}

CacheStats MetadataCache::stats() const {
    CacheStats s;
    {
        util::ReaderMutexLock lk(mu_);
        s = stats_;
    }
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.hit_bytes = hit_bytes_.load(std::memory_order_relaxed);
    return s;
}

void MetadataCache::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    using obs::MetricKind;
    // Polled callbacks reading stats(): the registry view is bit-identical
    // by construction and the cache hot path gains no extra writes.
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
