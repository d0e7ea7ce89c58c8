#pragma once
// Cache of finished serve responses keyed by (asset key, client
// parallelism). The §3.3 serving path is cheap but not free — combine_splits
// walks M split points and the wire re-serialization copies and hashes the
// bitstream — and real traffic concentrates on a few client classes
// (phone / laptop / GPU), so the hot responses are cached whole (wire,
// split count and body-frame checksums: FinishedResponse) and handed out by
// reference.
// Range responses reuse the same cache under a derived asset key (see
// server.cpp), hence the string key rather than an asset pointer.
//
// One byte-capacity LRU: an entry map plus a recency list over the map's
// keys. Hits and refreshes move an entry to the front; victims leave from
// the back until the payload bytes fit the capacity again.

#include <atomic>
#include <list>
#include <string>
#include <unordered_map>

#include "serve/protocol.hpp"
#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

/// Counters are cumulative over the cache's lifetime (they survive clear());
/// `bytes`/`entries` describe the current contents only.
struct CacheStats {
    u64 hits = 0;
    u64 misses = 0;
    /// Payload bytes served from the cache (the byte-hit-rate numerator:
    /// hit_bytes / total wire bytes served). Cumulative, survives clear().
    u64 hit_bytes = 0;
    u64 insertions = 0;
    u64 evictions = 0;
    /// Puts dropped because the payload alone exceeds the whole cache
    /// capacity. A persistently rising value means the capacity is
    /// mis-sized for the traffic, which a silent drop used to hide.
    u64 rejected = 0;
    /// High-water mark of `bytes` over the cache's lifetime. Like the
    /// cumulative counters it survives clear() (which resets the current
    /// size, not the history), so the memory story stays observable across
    /// operational clears.
    u64 peak_bytes = 0;
    u64 bytes = 0;    ///< current cached payload bytes
    u64 entries = 0;  ///< current entry count
};

class MetadataCache {
public:
    explicit MetadataCache(u64 capacity_bytes) : capacity_(capacity_bytes) {}

    /// nullptr on miss. A hit moves the entry to the front of the recency
    /// list. Every hit counts; a miss counts unless `count_miss` is false —
    /// the single-flight leader's recheck of a request whose first lookup
    /// already counted the miss.
    SharedResponse get(const std::string& asset_key, u32 parallelism,
                       bool count_miss = true) RECOIL_EXCLUDES(mu_);

    /// Insert (or refresh) an entry at the front of the recency list,
    /// evicting from the back past capacity. An entry costs its wire's
    /// bytes. Wires larger than the whole cache are never cached — counted
    /// in CacheStats::rejected (an oversized refresh also drops the
    /// now-stale resident entry rather than keep serving superseded bytes).
    /// An entry exactly equal to capacity is admitted (it fits — alone).
    void put(const std::string& asset_key, u32 parallelism,
             SharedResponse response) RECOIL_EXCLUDES(mu_);

    /// Drop every entry for `asset_key` (all parallelisms, and derived keys
    /// of the form "asset_key\n..." such as range responses). Not an
    /// eviction: the evictions counter is untouched.
    void erase_asset(const std::string& asset_key) RECOIL_EXCLUDES(mu_);

    /// Evict least-recently-used entries until current bytes <=
    /// `target_bytes` (counted as evictions — this is capacity pressure,
    /// from the resource governor rather than from an insertion). The
    /// configured capacity is unchanged: the cache may grow back.
    void shrink_to(u64 target_bytes) RECOIL_EXCLUDES(mu_);

    /// Drop every entry. Resets the current-size fields (`bytes`,
    /// `entries`) only; cumulative counters (hits/misses/insertions/
    /// evictions/rejected) survive, so observability across a clear() is
    /// not lost. Dropped entries do not count as evictions.
    void clear() RECOIL_EXCLUDES(mu_);
    CacheStats stats() const RECOIL_EXCLUDES(mu_);
    /// Publish this cache through `reg` as polled cache_* metrics (see
    /// docs/observability.md for the name catalogue). The callbacks read the
    /// same counters stats() reports, so both views are bit-identical.
    /// nullptr detaches nothing — binding is idempotent and re-binding a new
    /// registry is not supported (bind once at server construction).
    void bind_metrics(obs::MetricsRegistry* reg);
    u64 capacity_bytes() const noexcept { return capacity_; }
    /// Lock-free mirror of stats().bytes for cheap pressure checks.
    u64 current_bytes() const noexcept {
        return bytes_now_.load(std::memory_order_relaxed);
    }

private:
    struct Key {
        std::string asset;
        u32 parallelism;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const noexcept {
            return std::hash<std::string>{}(k.asset) * 0x9e3779b97f4a7c15ull ^
                   k.parallelism;
        }
    };
    /// Recency order, front = most recently used. Each element points at
    /// its entry's key inside map_ (node-based: stable under rehash).
    using Order = std::list<const Key*>;
    struct Entry {
        SharedResponse response;
        Order::iterator lru;  ///< this entry's position in order_
    };
    using Map = std::unordered_map<Key, Entry, KeyHash>;

    /// Unlink one entry from the map and the recency list and drop its
    /// bytes; the caller decides whether it counts as an eviction. Returns
    /// the map iterator after the erased entry.
    Map::iterator erase_locked(Map::iterator it) RECOIL_REQUIRES(mu_);
    void evict_until_locked(u64 target_bytes) RECOIL_REQUIRES(mu_);
    void set_bytes_locked(u64 bytes) RECOIL_REQUIRES(mu_);

    mutable util::Mutex mu_;
    u64 capacity_;  ///< immutable after construction
    Map map_ RECOIL_GUARDED_BY(mu_);
    Order order_ RECOIL_GUARDED_BY(mu_);
    CacheStats stats_ RECOIL_GUARDED_BY(mu_);
    /// Lock-free mirror of stats_.bytes (documented escape): written only
    /// by set_bytes_locked() under mu_, read without it by current_bytes()
    /// so the governor's pressure probe never contends with the cache.
    std::atomic<u64> bytes_now_{0};
};

}  // namespace recoil::serve
