#pragma once
// Thread-safe name -> Asset map. Assets are immutable once added and held by
// shared_ptr, so a concurrent reader's pointer stays valid across erase().
// Re-adding a name replaces the asset under a fresh uid. Every asset that
// leaves memory (replaced, unloaded, erased) is reported to the retire hook
// once it has left, which is how its cache entries leave with it.
//
// With a backing DiskStore attached the map becomes a view of the disk
// corpus: add_* write through durably before publishing, resolve()
// demand-loads misses as zero-copy views of the mmapped container, and the
// uid (generation) is carried across unload/reload cycles and restarts —
// an asset keeps its identity and the asset corpus is bounded by disk,
// not RAM. A uid may repeat across names (planted partitions, a re-attached
// disk), so the response cache keys on Asset::instance(), fresh per publish.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/asset.hpp"
#include "serve/store.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

class AssetStore {
public:
    std::shared_ptr<const Asset> add_file(std::string name, format::RecoilFile f);
    std::shared_ptr<const Asset> add_chunked(std::string name,
                                             stream::ChunkedStream s);

    /// Encode raw bytes once with `max_splits`-way metadata and store the
    /// resulting container (order-0 static model over the byte histogram).
    std::shared_ptr<const Asset> encode_bytes(std::string name,
                                              std::span<const u8> data,
                                              u32 max_splits, u32 prob_bits = 11);

    /// Attach a disk backing store: subsequent add_* write through durably,
    /// resolve() demand-loads misses, and uids continue above every stored
    /// generation. Attach before adding assets (earlier adds stay
    /// memory-only).
    void attach_backing(std::shared_ptr<DiskStore> disk)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    std::shared_ptr<DiskStore> backing() const RECOIL_EXCLUDES(mu_);

    /// In-memory lookup only; never touches the backing store.
    std::shared_ptr<const Asset> find(const std::string& name) const
        RECOIL_EXCLUDES(mu_);
    /// find(), then on a miss demand-load from the backing store (mmap +
    /// zero-copy parse) under the persisted generation. nullptr when the
    /// asset exists nowhere; StoreError when the stored copy is corrupt.
    /// While recency is tracked, stamps the returned asset's last_used()
    /// with a fresh tick (the governor ranks unload candidates by it).
    std::shared_ptr<const Asset> resolve(const std::string& name)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    /// Switch resolve()'s recency stamp: only the resource governor reads
    /// last_used(), so it turns the stamp on while a budget is set.
    void track_recency(bool on) noexcept {
        track_recency_.store(on, std::memory_order_relaxed);
    }

    /// Adopt an asset loaded from a FOREIGN DiskStore (the shard router's
    /// peer fetch): parse the mapped container into a zero-copy view and
    /// publish it under a fresh local uid (foreign generations belong to
    /// another store's sequence). The asset is NOT
    /// written through to this store's backing (the owning partition stays
    /// the single master copy); it is therefore memory-only here and the
    /// governor will not unload it.
    std::shared_ptr<const Asset> adopt(const DiskStore::Loaded& loaded)
        RECOIL_EXCLUDES(disk_mu_, mu_);

    /// True while `a` itself (this instance, not just its generation) is
    /// the in-memory asset under its name. The single-flight stale-put
    /// gate: a response views its asset's payload, so it may enter the
    /// cache only while the store counts that payload.
    bool is_resident(const Asset& a) const RECOIL_EXCLUDES(mu_);

    /// Called with every asset that leaves memory — replaced under its
    /// name, unloaded or erased — after it has left. Set once, before
    /// serving; the resource governor installs it.
    void on_retire(std::function<void(const Asset&)> hook) {
        retire_ = std::move(hook);
    }

    /// Drop the in-memory asset but keep the backing copy: resolve()
    /// reloads it under the same uid.
    bool unload(const std::string& name) RECOIL_EXCLUDES(mu_);
    /// Remove the asset everywhere (memory and backing store).
    bool erase(const std::string& name) RECOIL_EXCLUDES(disk_mu_, mu_);

    std::size_t size() const RECOIL_EXCLUDES(mu_);

    /// Master bytes of every in-memory asset — the store's RAM footprint as
    /// the resource governor accounts it (for a demand-loaded asset this is
    /// the mmap-resident container; for a heap asset, its payload buffers).
    /// Lock-free: maintained incrementally across add/resolve/unload/erase.
    u64 resident_bytes() const noexcept {
        return resident_bytes_.load(std::memory_order_relaxed);
    }

    /// One in-memory asset as the governor sees it when ranking unload
    /// candidates: only `backed` assets can be unloaded without data loss
    /// (resolve() reloads them under the same generation), and an asset
    /// with live external references (in-flight streams pin their asset) is
    /// pointless to unload — its memory stays pinned anyway.
    struct ResidentAsset {
        std::string name;
        u64 bytes = 0;
        bool backed = false;
        /// shared_ptr holders beyond the store's own reference, sampled at
        /// snapshot time (approximate under concurrency — a racing holder
        /// may appear or vanish; the governor treats it as a heuristic).
        long external_refs = 0;
        u64 last_used = 0;  ///< Asset::last_used() at snapshot time
    };
    /// Snapshot of every in-memory asset. The `backed` flags are queried
    /// from the backing store after the memory snapshot is taken.
    std::vector<ResidentAsset> residency() const RECOIL_EXCLUDES(mu_);

    /// Publish this store through `reg` as polled store_* metrics (resident
    /// bytes, asset count) and — when a backing DiskStore is or later
    /// becomes attached — the backing's disk_* metrics too. The disk
    /// callbacks hold a weak_ptr: a detached/replaced DiskStore reads as 0,
    /// never dangles.
    void bind_metrics(obs::MetricsRegistry* reg)
        RECOIL_EXCLUDES(disk_mu_, mu_);

private:
    std::shared_ptr<const Asset> insert(std::shared_ptr<Asset> a)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    /// resolve()'s miss path: load `name` from the backing store, if any.
    std::shared_ptr<const Asset> demand_load(const std::string& name)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    /// Publish `a` under `uid` (the next fresh uid when unset) and a fresh
    /// instance, replacing any asset under its name and keeping
    /// resident_bytes_ exact; the replaced asset is retired once mu_ is
    /// released.
    std::shared_ptr<const Asset> publish(std::shared_ptr<Asset> a,
                                         std::optional<u64> uid)
        RECOIL_EXCLUDES(mu_);
    /// Take `name` out of memory under mu_; returns the removed asset.
    std::shared_ptr<const Asset> remove_locked(const std::string& name)
        RECOIL_REQUIRES(mu_);
    /// Report an asset that left memory to the retire hook (null: none).
    void retire(const std::shared_ptr<const Asset>& gone) const {
        if (gone != nullptr && retire_) retire_(*gone);
    }

    mutable util::SharedMutex mu_;
    /// Serializes demand-loads and write-through ordering (taken before
    /// mu_; never the other way around — the ACQUIRED_BEFORE makes that
    /// ordering machine-checked, not a comment).
    util::Mutex disk_mu_ RECOIL_ACQUIRED_BEFORE(mu_);
    std::shared_ptr<DiskStore> disk_ RECOIL_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const Asset>> assets_
        RECOIL_GUARDED_BY(mu_);
    u64 next_uid_ RECOIL_GUARDED_BY(mu_) = 1;
    u64 next_instance_ RECOIL_GUARDED_BY(mu_) = 1;
    /// Recency clock behind Asset::last_used() and its switch (documented
    /// lock-free escapes: resolve() stamps without taking mu_ exclusively).
    std::atomic<u64> clock_{0};
    std::atomic<bool> track_recency_{false};
    /// Lock-free mirror of the in-memory master-byte total (documented
    /// escape): maintained under mu_, read without it by the governor's
    /// pressure probe.
    std::atomic<u64> resident_bytes_{0};
    /// Registry bound via bind_metrics, remembered so a DiskStore attached
    /// later is bound too.
    obs::MetricsRegistry* metrics_ RECOIL_GUARDED_BY(disk_mu_) = nullptr;
    /// Set before serving and immutable after (on_retire()): read unlocked.
    std::function<void(const Asset&)> retire_;
};

}  // namespace recoil::serve
