#pragma once
// Cache of finished serve responses keyed by ResponseKey: the asset's
// instance plus either a client parallelism or a symbol range. The §3.3 serving
// path is cheap but not free — combine_splits walks M split points and the
// wire serialization hashes the bitstream — and real traffic concentrates
// on a few client classes (phone / laptop / GPU), so the hot responses are
// cached as finished piece lists (owned structural sections, borrowed views
// of the asset's payload, split count and body-frame checksums:
// FinishedResponse) and handed out by reference. An entry is charged only
// the structural bytes it owns: the payload it views is the resident
// asset's, counted once by the store however many client classes view it —
// the paper's encode-once economics applied to server memory.
//
// One byte-capacity LRU over plain data: every entry carries the tick of its
// last get() or put(), taken from one relaxed atomic clock. A hit is a
// lookup under the lock held shared plus relaxed atomic stores; put(),
// eviction, erase_asset() and clear() hold it exclusively. Victims come off
// a sorted buffer of the oldest entries, refilled by one pass over the map
// once per eighth of them (O(log n) amortized); a candidate touched since
// the refill is skipped, so the order is exact LRU.

#include <atomic>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

/// Identifies one cached response: `asset` is Asset::instance(). A
/// full-asset response has lo = hi = 0; a range response has
/// parallelism = 0 and lo < hi.
struct ResponseKey {
    u64 asset = 0;
    u32 parallelism = 0;
    u64 lo = 0;
    u64 hi = 0;
    bool operator==(const ResponseKey&) const = default;

    struct Hash {
        std::size_t operator()(const ResponseKey& k) const noexcept {
            u64 h = k.asset * 0x9e3779b97f4a7c15ull;
            for (const u64 v : {u64{k.parallelism}, k.lo, k.hi})
                h = (h ^ v) * 0xff51afd7ed558ccdull;
            return static_cast<std::size_t>(h ^ (h >> 32));
        }
    };
};

/// Counters are cumulative over the cache's lifetime (they survive clear());
/// `bytes`/`entries` describe the current contents only.
struct CacheStats {
    u64 hits = 0;
    u64 misses = 0;
    /// Wire bytes served from the cache (the byte-hit-rate numerator:
    /// hit_bytes / total wire bytes served) — whole wires, not the charged
    /// bytes. Cumulative, survives clear().
    u64 hit_bytes = 0;
    u64 insertions = 0;
    u64 evictions = 0;
    /// Puts dropped because the entry's charge alone exceeds the whole
    /// cache capacity. A persistently rising value means the capacity is
    /// mis-sized for the traffic, which a silent drop used to hide.
    u64 rejected = 0;
    /// High-water mark of `bytes` over the cache's lifetime. Like the
    /// cumulative counters it survives clear() (which resets the current
    /// size, not the history), so the memory story stays observable across
    /// operational clears.
    u64 peak_bytes = 0;
    u64 bytes = 0;    ///< current charged (owned structural) bytes
    u64 entries = 0;  ///< current entry count
};

class MetadataCache {
public:
    explicit MetadataCache(u64 capacity_bytes) : capacity_(capacity_bytes) {}

    /// nullptr on miss. A hit stamps the entry with a fresh tick; the lookup
    /// holds the lock shared, so hits never wait for each other. Every hit
    /// counts; a miss counts unless `count_miss` is false — the
    /// single-flight leader's recheck of a request whose first lookup
    /// already counted the miss.
    SharedResponse get(const ResponseKey& key, bool count_miss = true) const
        RECOIL_EXCLUDES(mu_);

    /// Insert (or refresh) an entry under a fresh tick, evicting the oldest
    /// past capacity. An entry costs its response's owned bytes
    /// (FinishedResponse::owned_bytes). Entries charged more than the whole
    /// cache are never cached — counted in CacheStats::rejected (an
    /// oversized refresh also drops the now-stale resident entry rather
    /// than keep serving superseded bytes). An entry exactly equal to
    /// capacity is admitted (it fits — alone).
    void put(const ResponseKey& key, SharedResponse response)
        RECOIL_EXCLUDES(mu_);

    /// Drop every entry of asset instance `asset` (all classes and ranges).
    /// Not an eviction: the evictions counter is untouched.
    void erase_asset(u64 asset) RECOIL_EXCLUDES(mu_);

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
    struct Entry {
        Entry(SharedResponse r, u64 t) : response(std::move(r)), tick(t) {}
        SharedResponse response;
        /// Clock value of this entry's last get() or put(). Documented
        /// escape: a hit stores it holding mu_ only shared.
        mutable std::atomic<u64> tick;
    };
    using Map = std::unordered_map<ResponseKey, Entry, ResponseKey::Hash>;

    u64 next_tick() const noexcept {
        return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    /// Unlink one entry and drop its bytes; the caller decides whether it
    /// counts as an eviction. Returns the iterator after the erased entry.
    Map::iterator erase_locked(Map::iterator it) RECOIL_REQUIRES(mu_);
    void evict_until_locked(u64 target_bytes) RECOIL_REQUIRES(mu_);
    void set_bytes_locked(u64 bytes) RECOIL_REQUIRES(mu_);

    mutable util::SharedMutex mu_;
    u64 capacity_;  ///< immutable after construction
    Map map_ RECOIL_GUARDED_BY(mu_);
    /// Eviction candidates as (tick at refill, key); the oldest is last.
    std::vector<std::pair<u64, ResponseKey>> victims_ RECOIL_GUARDED_BY(mu_);
    /// Everything but hits/misses/hit_bytes, which live in the atomics
    /// below and are folded in by stats().
    CacheStats stats_ RECOIL_GUARDED_BY(mu_);
    /// Documented lock-free escapes: the recency clock (get() takes a tick
    /// under the shared lock) and the hit/miss counters (after releasing it).
    mutable std::atomic<u64> clock_{0};
    mutable std::atomic<u64> hits_{0};
    mutable std::atomic<u64> misses_{0};
    mutable std::atomic<u64> hit_bytes_{0};
    /// Lock-free mirror of stats_.bytes (documented escape): written only
    /// by set_bytes_locked() under mu_, read without it by current_bytes()
    /// so the governor's pressure probe never contends with the cache.
    std::atomic<u64> bytes_now_{0};
};

}  // namespace recoil::serve
