#pragma once
// Crash-safe on-disk asset store — the persistence layer the encode-once
// premise demands: master containers survive restarts, so a cold
// ContentServer never re-encodes the fleet, and the asset corpus is bounded
// by disk, not RAM. A store directory holds one generation-suffixed
// container file per live asset plus a small per-asset manifest (magic,
// format version, asset name, kind, generation, FNV checksum of the
// container). Writes are durable: container and manifest are each written
// to a temp file, fsynced, atomically renamed into place, and the directory
// is fsynced; replacement commits via the manifest rename — a crash at any
// point leaves either the old asset or the new one, never a torn file.
// Opening a store
// only stats manifests (milliseconds); containers are mmapped read-only at
// demand-load time and parsed into zero-copy FileAsset/ChunkedAsset views
// (format::SharedBuffer), so serving reads straight out of the page cache.

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/asset.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

/// Typed store failure taxonomy. `status` is authoritative for dispatch;
/// what() elaborates for humans and logs.
enum class StoreStatus : u8 {
    io_error = 0,       ///< open/read/write/fsync/rename failed
    bad_manifest = 1,   ///< manifest file does not parse or fails its checksum
    bad_container = 2,  ///< container missing, truncated, or corrupt
    bad_name = 3,       ///< asset name cannot become a store filename
};
const char* store_status_name(StoreStatus status) noexcept;

class StoreError : public Error {
public:
    StoreError(StoreStatus status, const std::string& what)
        : Error(what), status_(status) {}
    StoreStatus status() const noexcept { return status_; }

private:
    StoreStatus status_;
};

/// Read-only mmap of one container file. Shared ownership keeps the mapping
/// alive for every zero-copy asset view cut from it, even after the store
/// entry is replaced or removed (POSIX keeps renamed-over mappings valid).
class MappedFile {
public:
    static std::shared_ptr<const MappedFile> map(
        const std::filesystem::path& path);
    ~MappedFile();
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;

    std::span<const u8> bytes() const noexcept {
        return {static_cast<const u8*>(addr_), size_};
    }

private:
    MappedFile(void* addr, std::size_t size) : addr_(addr), size_(size) {}
    void* addr_ = nullptr;
    std::size_t size_ = 0;
};

/// Manifest contents for one stored asset.
struct StoredAssetInfo {
    std::string name;
    AssetKind kind = AssetKind::static_file;
    u64 generation = 0;       ///< AssetStore uid, carried across restarts
    u64 container_bytes = 0;  ///< exact container file size
    u64 checksum = 0;         ///< FNV-1a over the whole container file
};

/// The on-disk directory: an index of manifests plus durable put/load/
/// remove. Thread-safe; load() returns a mapping that outlives any
/// subsequent replacement of the entry.
class DiskStore {
public:
    /// Open the directory (creating it if absent) and index every manifest.
    /// Raises StoreError on unreadable manifests or missing/short containers.
    explicit DiskStore(std::filesystem::path dir);

    const std::filesystem::path& dir() const noexcept { return dir_; }
    std::optional<StoredAssetInfo> info(const std::string& name) const
        RECOIL_EXCLUDES(mu_);
    std::size_t size() const RECOIL_EXCLUDES(mu_);
    /// Container bytes of every stored asset: the master bytes this store
    /// would hold resident if every asset were loaded.
    u64 stored_bytes() const RECOIL_EXCLUDES(mu_);
    /// Smallest generation strictly above every stored asset's, so a
    /// reopened AssetStore continues the uid sequence instead of reusing one.
    u64 next_generation() const RECOIL_EXCLUDES(mu_);

    /// Durably write `container` under `name` with the atomic-rename
    /// protocol: the generation-suffixed container file lands first (never
    /// touching the live one), then the manifest rename commits the
    /// replacement — a crash at any point leaves either the old asset or
    /// the new one, plus at worst an orphan container ignored at open.
    void put(const std::string& name, AssetKind kind,
             std::span<const u8> container, u64 generation)
        RECOIL_EXCLUDES(mu_);

    /// A mapped container whose bytes matched the manifest's FNV checksum,
    /// so parsers skip re-hashing them.
    struct Loaded {
        StoredAssetInfo info;
        std::shared_ptr<const MappedFile> map;  ///< keeper for zero-copy views
    };
    /// mmap an asset's container and check it against the manifest's FNV
    /// checksum. nullopt when the name is not stored; StoreError when it is
    /// stored but unreadable or corrupt.
    std::optional<Loaded> load(const std::string& name) const
        RECOIL_EXCLUDES(mu_);

    /// One corrupt (or unreadable) stored asset found by verify().
    struct VerifyIssue {
        std::string name;
        StoreStatus status = StoreStatus::bad_container;
        std::string detail;
    };
    struct VerifyReport {
        std::size_t checked = 0;
        std::vector<VerifyIssue> issues;
        bool ok() const noexcept { return issues.empty(); }
    };
    /// Re-walk every manifest and container: mmap, FNV-check against the
    /// manifest, and structurally parse the container. Corrupt assets come
    /// back as typed issues instead of a throw on the first defect — the
    /// boot-time scrub a server runs so a bad asset surfaces before its
    /// first demand-load does. Healthy assets are untouched in memory
    /// terms: mappings are dropped on return.
    VerifyReport verify() const RECOIL_EXCLUDES(mu_);

    /// Remove an asset's container and manifest. Existing mappings stay
    /// valid. False when the name is not stored.
    bool remove(const std::string& name) RECOIL_EXCLUDES(mu_);

    /// Cumulative disk-traffic counters over this store handle's lifetime
    /// (successful operations only; a failed put/load counts nothing).
    struct Stats {
        u64 puts = 0;
        u64 put_bytes = 0;   ///< container bytes durably written
        u64 loads = 0;
        u64 load_bytes = 0;  ///< container bytes mmapped by load()
        u64 removes = 0;
    };
    Stats stats() const noexcept {
        return {puts_.load(std::memory_order_relaxed),
                put_bytes_.load(std::memory_order_relaxed),
                loads_.load(std::memory_order_relaxed),
                load_bytes_.load(std::memory_order_relaxed),
                removes_.load(std::memory_order_relaxed)};
    }

    /// Publish this store through `reg` as polled disk_* metrics; callbacks
    /// read the same atomics stats() reports.
    void bind_metrics(obs::MetricsRegistry* reg);

private:
    std::filesystem::path container_path(const std::string& name,
                                         u64 generation) const;
    std::filesystem::path manifest_path(const std::string& name) const;

    std::filesystem::path dir_;
    // mu_ guards the manifest index AND frames the on-disk commit protocol
    // (put/remove mutate files under it). The traffic counters below are
    // relaxed atomics — the documented escape that keeps stats() lock-free.
    mutable util::Mutex mu_;
    std::map<std::string, StoredAssetInfo> index_ RECOIL_GUARDED_BY(mu_);
    std::atomic<u64> puts_{0};
    std::atomic<u64> put_bytes_{0};
    mutable std::atomic<u64> loads_{0};  ///< load() is logically const
    mutable std::atomic<u64> load_bytes_{0};
    std::atomic<u64> removes_{0};
};

/// Construct the in-memory asset for a mapped container: kind-dispatched
/// parse with zero-copy unit/id views retaining the mapping. The asset's
/// uid is NOT set here (the AssetStore assigns it from info.generation).
std::shared_ptr<Asset> asset_from_mapped(const DiskStore::Loaded& loaded);

}  // namespace recoil::serve
