#include "serve/asset_store.hpp"

#include <algorithm>
#include <utility>

#include "core/recoil_encoder.hpp"
#include "obs/metrics.hpp"
#include "rans/symbol_stats.hpp"
#include "util/error.hpp"

namespace recoil::serve {

namespace {

/// Register the disk_* metric names against a weak_ptr: a detached or
/// replaced DiskStore reads as 0, never dangles. Re-binding on attach
/// replaces the callbacks by name (registry contract), so the newest
/// backing always owns the names.
void bind_disk_weak(obs::MetricsRegistry* reg,
                    const std::weak_ptr<DiskStore>& wp) {
    using obs::MetricKind;
    auto poll = [wp](u64 DiskStore::Stats::* field) {
        return [wp, field]() -> u64 {
            auto disk = wp.lock();
            return disk == nullptr ? 0 : disk->stats().*field;
        };
    };
    reg->register_callback("disk_puts_total", MetricKind::counter,
                           poll(&DiskStore::Stats::puts));
    reg->register_callback("disk_put_bytes_total", MetricKind::counter,
                           poll(&DiskStore::Stats::put_bytes));
    reg->register_callback("disk_loads_total", MetricKind::counter,
                           poll(&DiskStore::Stats::loads));
    reg->register_callback("disk_load_bytes_total", MetricKind::counter,
                           poll(&DiskStore::Stats::load_bytes));
    reg->register_callback("disk_removes_total", MetricKind::counter,
                           poll(&DiskStore::Stats::removes));
    reg->register_callback("disk_assets", MetricKind::gauge, [wp]() -> u64 {
        auto disk = wp.lock();
        return disk == nullptr ? 0 : disk->size();
    });
}

}  // namespace

std::shared_ptr<const Asset> AssetStore::publish(std::shared_ptr<Asset> a,
                                                 std::optional<u64> uid) {
    std::shared_ptr<const Asset> ptr;
    std::shared_ptr<const Asset> replaced;
    {
        util::WriterMutexLock lk(mu_);
        a->uid_ = uid.value_or(next_uid_);
        next_uid_ = std::max(next_uid_, a->uid_ + 1);
        ptr = std::move(a);
        auto& slot = assets_[ptr->name()];
        if (slot != nullptr)
            resident_bytes_.fetch_sub(slot->master_bytes(),
                                      std::memory_order_relaxed);
        resident_bytes_.fetch_add(ptr->master_bytes(),
                                  std::memory_order_relaxed);
        replaced = std::exchange(slot, ptr);
    }
    retire(replaced);
    return ptr;
}

std::shared_ptr<const Asset> AssetStore::remove_locked(
    const std::string& name) {
    auto it = assets_.find(name);
    if (it == assets_.end()) return nullptr;
    resident_bytes_.fetch_sub(it->second->master_bytes(),
                              std::memory_order_relaxed);
    std::shared_ptr<const Asset> gone = std::move(it->second);
    assets_.erase(it);
    return gone;
}

std::shared_ptr<const Asset> AssetStore::insert(std::shared_ptr<Asset> a) {
    // disk_mu_ orders write-throughs: two concurrent adds of one name reach
    // disk and memory in the same order, so a restart never resurrects the
    // losing generation (and an attach cannot land between the two).
    util::MutexLock dl(disk_mu_);
    const std::shared_ptr<DiskStore> disk = backing();
    if (disk == nullptr) return publish(std::move(a), std::nullopt);
    u64 uid = 0;
    {
        util::WriterMutexLock lk(mu_);
        uid = next_uid_++;
    }
    // Serialize the master and write through durably BEFORE publishing, so
    // a crash cannot leave a served asset that a restart forgets.
    const std::vector<u8> container = a->file() != nullptr
                                          ? format::save_recoil_file(*a->file())
                                          : a->chunked()->serialize();
    disk->put(a->name(), a->kind(), container, uid);
    return publish(std::move(a), uid);
}

std::shared_ptr<const Asset> AssetStore::add_file(std::string name,
                                                 format::RecoilFile f) {
    return insert(std::make_shared<FileAsset>(std::move(name), std::move(f)));
}

std::shared_ptr<const Asset> AssetStore::add_chunked(std::string name,
                                                     stream::ChunkedStream s) {
    return insert(std::make_shared<ChunkedAsset>(std::move(name), std::move(s)));
}

std::shared_ptr<const Asset> AssetStore::encode_bytes(std::string name,
                                                      std::span<const u8> data,
                                                      u32 max_splits,
                                                      u32 prob_bits) {
    RECOIL_CHECK(!data.empty(), "encode_bytes: empty asset");
    StaticModel model(histogram(data), prob_bits);
    auto enc = recoil_encode<Rans32, 32>(data, model, max_splits);
    return add_file(std::move(name), format::make_recoil_file(enc, model, 1));
}

void AssetStore::attach_backing(std::shared_ptr<DiskStore> disk) {
    util::MutexLock dl(disk_mu_);
    // Keep a local handle: disk_ itself is guarded by mu_, and the metrics
    // rebinding below runs after mu_ is dropped (reading disk_ there was a
    // lock-discipline hole the thread-safety analysis rejects).
    const std::shared_ptr<DiskStore> attached = std::move(disk);
    {
        util::WriterMutexLock lk(mu_);
        disk_ = attached;
        if (attached != nullptr)
            next_uid_ = std::max(next_uid_, attached->next_generation());
    }
    // A registry bound before the backing existed picks the disk up now.
    if (metrics_ != nullptr && attached != nullptr)
        bind_disk_weak(metrics_, attached);
}

void AssetStore::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    using obs::MetricKind;
    reg->register_callback("store_resident_bytes", MetricKind::gauge,
                           [this] { return resident_bytes(); });
    reg->register_callback("store_assets", MetricKind::gauge,
                           [this] { return static_cast<u64>(size()); });
    util::MutexLock dl(disk_mu_);
    metrics_ = reg;
    // disk_ lives under mu_; snapshot it there (disk_mu_ alone serializes
    // attaches, but the analysis — rightly — wants the guarding lock).
    std::shared_ptr<DiskStore> disk;
    {
        util::ReaderMutexLock lk(mu_);
        disk = disk_;
    }
    if (disk != nullptr) bind_disk_weak(reg, disk);
}

std::shared_ptr<DiskStore> AssetStore::backing() const {
    util::ReaderMutexLock lk(mu_);
    return disk_;
}

std::shared_ptr<const Asset> AssetStore::find(const std::string& name) const {
    util::ReaderMutexLock lk(mu_);
    auto it = assets_.find(name);
    return it == assets_.end() ? nullptr : it->second;
}

std::shared_ptr<const Asset> AssetStore::resolve(const std::string& name) {
    if (auto a = find(name)) return a;
    // Nothing to demand-load without a backing store — and unknown-name
    // traffic must not contend on the load mutex.
    if (backing() == nullptr) return nullptr;
    util::MutexLock dl(disk_mu_);
    if (auto a = find(name)) return a;  // raced with another loader
    std::shared_ptr<DiskStore> disk;
    {
        util::ReaderMutexLock lk(mu_);
        disk = disk_;
    }
    if (disk == nullptr) return nullptr;
    auto loaded = disk->load(name);
    if (!loaded) return nullptr;
    // The persisted generation IS the uid: it survives unload/reload cycles
    // and restarts, and fresh inserts continue strictly above it.
    return publish(asset_from_mapped(*loaded), loaded->info.generation);
}

std::shared_ptr<const Asset> AssetStore::adopt(const DiskStore::Loaded& loaded) {
    return publish(asset_from_mapped(loaded), std::nullopt);
}

bool AssetStore::is_resident(const Asset& a) const {
    util::ReaderMutexLock lk(mu_);
    auto it = assets_.find(a.name());
    return it != assets_.end() && it->second.get() == &a;
}

bool AssetStore::unload(const std::string& name) {
    std::shared_ptr<const Asset> gone;
    {
        util::WriterMutexLock lk(mu_);
        gone = remove_locked(name);
    }
    retire(gone);
    return gone != nullptr;
}

bool AssetStore::erase(const std::string& name) {
    if (backing() == nullptr) return unload(name);  // memory-only store
    std::shared_ptr<const Asset> gone;
    bool had = false;
    {
        util::MutexLock dl(disk_mu_);
        std::shared_ptr<DiskStore> disk;
        {
            util::WriterMutexLock lk(mu_);
            gone = remove_locked(name);
            disk = disk_;
        }
        if (disk != nullptr) had = disk->remove(name);
    }
    retire(gone);
    return had || gone != nullptr;
}

std::vector<AssetStore::ResidentAsset> AssetStore::residency() const {
    std::vector<ResidentAsset> out;
    std::shared_ptr<DiskStore> disk;
    {
        util::ReaderMutexLock lk(mu_);
        out.reserve(assets_.size());
        for (const auto& [name, asset] : assets_)
            // use_count samples holders beyond the store's own reference —
            // no copy of the shared_ptr is made here, so the store counts
            // exactly once.
            out.push_back(ResidentAsset{name, asset->master_bytes(), false,
                                        asset.use_count() - 1});
        disk = disk_;
    }
    if (disk != nullptr)
        for (ResidentAsset& r : out) r.backed = disk->info(r.name).has_value();
    return out;
}

std::vector<std::string> AssetStore::names() const {
    util::ReaderMutexLock lk(mu_);
    std::vector<std::string> out;
    out.reserve(assets_.size());
    for (const auto& [name, _] : assets_) out.push_back(name);
    return out;
}

std::size_t AssetStore::size() const {
    util::ReaderMutexLock lk(mu_);
    return assets_.size();
}

}  // namespace recoil::serve
