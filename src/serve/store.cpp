#include "serve/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "format/wire_io.hpp"
#include "obs/metrics.hpp"

namespace recoil::serve {

namespace fs = std::filesystem;
using namespace format::wire;

namespace {

constexpr char kManifestMagic[4] = {'R', 'C', 'M', '1'};
constexpr u8 kManifestVersion = 1;
constexpr const char* kContainerExt = ".rca";
constexpr const char* kManifestExt = ".rcm";
constexpr std::size_t kMaxEncodedName = 200;  ///< filesystem NAME_MAX margin

[[noreturn]] void fail(StoreStatus status, const std::string& what) {
    throw StoreError(status, what);
}

[[noreturn]] void fail_errno(const std::string& what) {
    fail(StoreStatus::io_error, what + ": " + std::strerror(errno));
}

/// Asset names are arbitrary strings; filenames keep [a-z0-9._-] and
/// percent-encode the rest (uppercase too, so names differing only in case
/// cannot collide on a case-folding filesystem), keeping the mapping
/// injective and portable.
std::string encode_name(const std::string& name) {
    static constexpr char hex[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(name.size());
    for (const char ch : name) {
        const auto c = static_cast<unsigned char>(ch);
        const bool safe = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                          c == '.' || c == '_' || c == '-';
        if (safe && !(out.empty() && c == '.')) {  // no hidden/dot-relative files
            out.push_back(ch);
        } else {
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xF]);
        }
    }
    if (out.empty() || out.size() > kMaxEncodedName)
        fail(StoreStatus::bad_name,
             "store: asset name '" + name + "' cannot become a store filename");
    return out;
}

std::vector<u8> serialize_manifest(const StoredAssetInfo& info) {
    std::vector<u8> out;
    out.insert(out.end(), kManifestMagic, kManifestMagic + 4);
    out.push_back(kManifestVersion);
    out.push_back(static_cast<u8>(info.kind));
    put_u16(out, 0);  // reserved
    put_u64(out, info.generation);
    put_u64(out, info.container_bytes);
    put_u64(out, info.checksum);
    put_u32(out, static_cast<u32>(info.name.size()));
    out.insert(out.end(), info.name.begin(), info.name.end());
    append_checksum(out);
    return out;
}

StoredAssetInfo parse_manifest(std::span<const u8> bytes,
                               const std::string& path) {
    const std::string ctx = "store manifest " + path;
    try {
        Cursor c{checked_payload(bytes, ctx.c_str()), ctx.c_str()};
        if (std::memcmp(c.get_bytes(4).data(), kManifestMagic, 4) != 0)
            raise(ctx + ": bad magic");
        if (c.get_u8() != kManifestVersion)
            raise(ctx + ": unsupported version");
        StoredAssetInfo info;
        const u8 kind = c.get_u8();
        if (kind > static_cast<u8>(AssetKind::chunked))
            raise(ctx + ": bad asset kind");
        info.kind = static_cast<AssetKind>(kind);
        if (c.get_u16() != 0) raise(ctx + ": reserved bits set");
        info.generation = c.get_u64();
        info.container_bytes = c.get_u64();
        info.checksum = c.get_u64();
        const u32 name_len = c.get_u32();
        auto name = c.get_bytes(name_len);
        info.name.assign(name.begin(), name.end());
        if (info.name.empty()) raise(ctx + ": empty asset name");
        return info;
    } catch (const StoreError&) {
        throw;
    } catch (const Error& e) {
        fail(StoreStatus::bad_manifest, e.what());
    }
}

/// Temp-file + fsync + atomic-rename + directory fsync: after return the
/// bytes are durably at `final_path`, or the previous file is untouched.
void write_file_durable(const fs::path& final_path, std::span<const u8> bytes) {
    fs::path tmp = final_path;
    tmp += ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail_errno("store: cannot create " + tmp.string());
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            fail_errno("store: write to " + tmp.string() + " failed");
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        fail_errno("store: fsync of " + tmp.string() + " failed");
    }
    ::close(fd);
    if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        fail_errno("store: rename to " + final_path.string() + " failed");
    }
    const int dfd = ::open(final_path.parent_path().c_str(),
                           O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {  // directory fsync is best-effort on exotic filesystems
        ::fsync(dfd);
        ::close(dfd);
    }
}

}  // namespace

const char* store_status_name(StoreStatus status) noexcept {
    switch (status) {
        case StoreStatus::io_error: return "io_error";
        case StoreStatus::bad_manifest: return "bad_manifest";
        case StoreStatus::bad_container: return "bad_container";
        case StoreStatus::bad_name: return "bad_name";
    }
    return "unknown";
}

std::shared_ptr<const MappedFile> MappedFile::map(const fs::path& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) fail_errno("store: cannot open " + path.string());
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail_errno("store: cannot stat " + path.string());
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* addr = nullptr;
    if (size > 0) {
        addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (addr == MAP_FAILED) {
            ::close(fd);
            fail_errno("store: mmap of " + path.string() + " failed");
        }
    }
    ::close(fd);  // the mapping survives the descriptor
    return std::shared_ptr<const MappedFile>(new MappedFile(addr, size));
}

MappedFile::~MappedFile() {
    if (addr_ != nullptr) ::munmap(addr_, size_);
}

DiskStore::DiskStore(fs::path dir) : dir_(std::move(dir)) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        fail(StoreStatus::io_error,
             "store: cannot create directory " + dir_.string());

    for (const auto& entry : fs::directory_iterator(dir_)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != kManifestExt)
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        if (!in)
            fail(StoreStatus::io_error,
                 "store: cannot read manifest " + entry.path().string());
        StoredAssetInfo info = parse_manifest(bytes, entry.path().string());
        if (manifest_path(info.name) != entry.path())
            fail(StoreStatus::bad_manifest,
                 "store manifest " + entry.path().string() +
                     ": filename does not match asset name '" + info.name + "'");
        const fs::path container = container_path(info.name, info.generation);
        std::error_code size_ec;
        const auto size = fs::file_size(container, size_ec);
        if (size_ec)
            fail(StoreStatus::bad_container,
                 "store: container missing for asset '" + info.name + "' (" +
                     container.string() + ")");
        if (size != info.container_bytes)
            fail(StoreStatus::bad_container,
                 "store: container for asset '" + info.name + "' is " +
                     std::to_string(size) + " B, manifest says " +
                     std::to_string(info.container_bytes) + " B");
        index_.emplace(info.name, std::move(info));
    }
}

std::filesystem::path DiskStore::container_path(const std::string& name,
                                                u64 generation) const {
    return dir_ /
           (encode_name(name) + ".g" + std::to_string(generation) + kContainerExt);
}

std::filesystem::path DiskStore::manifest_path(const std::string& name) const {
    return dir_ / (encode_name(name) + kManifestExt);
}

std::optional<StoredAssetInfo> DiskStore::info(const std::string& name) const {
    util::MutexLock lk(mu_);
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
}

std::size_t DiskStore::size() const {
    util::MutexLock lk(mu_);
    return index_.size();
}

u64 DiskStore::stored_bytes() const {
    util::MutexLock lk(mu_);
    u64 bytes = 0;
    for (const auto& [name, info] : index_) bytes += info.container_bytes;
    return bytes;
}

u64 DiskStore::next_generation() const {
    util::MutexLock lk(mu_);
    u64 next = 1;
    for (const auto& [_, info] : index_)
        next = std::max(next, info.generation + 1);
    return next;
}

void DiskStore::put(const std::string& name, AssetKind kind,
                    std::span<const u8> container, u64 generation) {
    StoredAssetInfo info;
    info.name = name;
    info.kind = kind;
    info.generation = generation;
    info.container_bytes = container.size();
    info.checksum = format::fnv1a(container);
    const std::vector<u8> manifest = serialize_manifest(info);

    util::MutexLock lk(mu_);
    // Containers are generation-suffixed, so writing the new one never
    // touches the live one; the manifest rename is the atomic commit. A
    // crash before it leaves the old asset fully intact plus an orphan
    // container (ignored at open); a crash after it leaves the new asset
    // committed plus the predecessor's container, garbage-collected below
    // on this put and ignored at open otherwise.
    const auto prev = index_.find(name);
    const std::optional<u64> prev_gen =
        prev != index_.end() ? std::optional<u64>(prev->second.generation)
                             : std::nullopt;
    write_file_durable(container_path(name, generation), container);
    write_file_durable(manifest_path(name), manifest);
    if (prev_gen.has_value() && *prev_gen != generation) {
        std::error_code ec;  // best effort: an orphan is harmless
        fs::remove(container_path(name, *prev_gen), ec);
    }
    index_[name] = std::move(info);
    puts_.fetch_add(1, std::memory_order_relaxed);
    put_bytes_.fetch_add(container.size(), std::memory_order_relaxed);
}

std::optional<DiskStore::Loaded> DiskStore::load(const std::string& name) const {
    for (int attempt = 0;; ++attempt) {
        StoredAssetInfo info;
        {
            util::MutexLock lk(mu_);
            auto it = index_.find(name);
            if (it == index_.end()) return std::nullopt;
            info = it->second;
        }
        try {
            auto map = MappedFile::map(container_path(name, info.generation));
            if (map->bytes().size() != info.container_bytes)
                fail(StoreStatus::bad_container,
                     "store: container for asset '" + name + "' is " +
                         std::to_string(map->bytes().size()) +
                         " B, manifest says " +
                         std::to_string(info.container_bytes) + " B");
            if (format::fnv1a(map->bytes()) != info.checksum)
                fail(StoreStatus::bad_container,
                     "store: container checksum mismatch for asset '" + name +
                         "'");
            loads_.fetch_add(1, std::memory_order_relaxed);
            load_bytes_.fetch_add(map->bytes().size(),
                                  std::memory_order_relaxed);
            return Loaded{std::move(info), std::move(map)};
        } catch (const StoreError&) {
            // A concurrent put() may have replaced the asset (and collected
            // this generation's container) between the index read and the
            // map. If so, retry against the new generation; otherwise it is
            // genuine corruption.
            util::MutexLock lk(mu_);
            auto it = index_.find(name);
            if (attempt == 0 && it != index_.end() &&
                it->second.generation != info.generation)
                continue;
            throw;
        }
    }
}

DiskStore::VerifyReport DiskStore::verify() const {
    std::vector<StoredAssetInfo> assets;
    {
        util::MutexLock lk(mu_);
        assets.reserve(index_.size());
        for (const auto& [_, info] : index_) assets.push_back(info);
    }
    VerifyReport report;
    for (const StoredAssetInfo& info : assets) {
        ++report.checked;
        try {
            auto map = MappedFile::map(container_path(info.name, info.generation));
            if (map->bytes().size() != info.container_bytes)
                fail(StoreStatus::bad_container,
                     "store: container for asset '" + info.name + "' is " +
                         std::to_string(map->bytes().size()) +
                         " B, manifest says " +
                         std::to_string(info.container_bytes) + " B");
            if (format::fnv1a(map->bytes()) != info.checksum)
                fail(StoreStatus::bad_container,
                     "store: container checksum mismatch for asset '" +
                         info.name + "'");
            // Structural validation via the real parser: a container whose
            // checksum holds can still carry nonsense a demand-load would
            // reject (the manifest hash covers bytes, not invariants).
            asset_from_mapped(Loaded{info, std::move(map)});
        } catch (const StoreError& e) {
            report.issues.push_back({info.name, e.status(), e.what()});
        } catch (const Error& e) {
            report.issues.push_back(
                {info.name, StoreStatus::bad_container, e.what()});
        }
    }
    return report;
}

bool DiskStore::remove(const std::string& name) {
    util::MutexLock lk(mu_);
    auto it = index_.find(name);
    if (it == index_.end()) return false;
    // Manifest first: a crash mid-remove leaves an orphan container (ignored
    // at open) rather than a manifest referencing a missing container.
    std::error_code ec;
    fs::remove(manifest_path(name), ec);
    if (ec) fail(StoreStatus::io_error,
                 "store: cannot remove manifest for '" + name + "'");
    fs::remove(container_path(name, it->second.generation), ec);
    if (ec) fail(StoreStatus::io_error,
                 "store: cannot remove container for '" + name + "'");
    const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    index_.erase(it);
    removes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void DiskStore::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    // `this`-capturing callbacks: the caller guarantees the store outlives
    // the registry (an AssetStore whose backing may be replaced binds its
    // disk through weak_ptr-guarded callbacks instead — see
    // AssetStore::bind_metrics).
    using obs::MetricKind;
    reg->register_callback("disk_puts_total", MetricKind::counter,
                           [this] { return stats().puts; });
    reg->register_callback("disk_put_bytes_total", MetricKind::counter,
                           [this] { return stats().put_bytes; });
    reg->register_callback("disk_loads_total", MetricKind::counter,
                           [this] { return stats().loads; });
    reg->register_callback("disk_load_bytes_total", MetricKind::counter,
                           [this] { return stats().load_bytes; });
    reg->register_callback("disk_removes_total", MetricKind::counter,
                           [this] { return stats().removes; });
    reg->register_callback("disk_assets", MetricKind::gauge,
                           [this] { return static_cast<u64>(size()); });
}

std::shared_ptr<Asset> asset_from_mapped(const DiskStore::Loaded& loaded) {
    const auto bytes = loaded.map->bytes();
    try {
        if (loaded.info.kind == AssetKind::chunked) {
            return std::make_shared<ChunkedAsset>(
                loaded.info.name,
                stream::ChunkedStream::parse_view(bytes, loaded.map,
                                                  /*checksum_verified=*/true));
        }
        format::RecoilFile f = format::load_recoil_file_view(
            bytes, loaded.map, /*checksum_verified=*/true);
        return std::make_shared<FileAsset>(loaded.info.name, std::move(f));
    } catch (const StoreError&) {
        throw;
    } catch (const Error& e) {
        fail(StoreStatus::bad_container,
             "store: container for asset '" + loaded.info.name +
                 "' does not parse: " + e.what());
    }
}

}  // namespace recoil::serve
