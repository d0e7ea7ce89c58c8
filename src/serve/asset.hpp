#pragma once
// Asset layer of the content-delivery service (§1, §3.3). Each asset is
// encoded ONCE at the largest parallelism any client may request; everything
// the serving path later adapts is metadata, never the bitstream. Asset is a
// polymorphic interface so the server core is agnostic to the asset's shape:
// a single Recoil container (static or indexed model) and a chunked stream
// answer the same two questions — "combine to this parallelism" and "slice
// this symbol range" — each producing its own wire form.

#include <atomic>
#include <memory>
#include <string>

#include "format/container.hpp"
#include "serve/protocol.hpp"
#include "serve/range_wire.hpp"
#include "stream/chunked.hpp"

namespace recoil::serve {

enum class AssetKind : u8 { static_file = 0, indexed_file = 1, chunked = 2 };
const char* kind_name(AssetKind kind) noexcept;

/// One immutable encoded asset. Instances are shared const after insertion
/// into an AssetStore, so every accessor is safe under concurrent serving.
class Asset {
public:
    virtual ~Asset() = default;
    Asset(const Asset&) = delete;
    Asset& operator=(const Asset&) = delete;

    const std::string& name() const noexcept { return name_; }
    /// Store-assigned generation, unique per insert: a demand-loaded asset
    /// carries its persisted generation across unload/reload cycles and
    /// restarts.
    u64 uid() const noexcept { return uid_; }
    /// Identity of this in-memory copy, fresh per publish (insert, demand-
    /// load, adopt) and never reused by its store: cached responses and
    /// single-flight combines are keyed by it, never by the uid.
    u64 instance() const noexcept { return instance_; }
    /// Recency tick of the last AssetStore::resolve() that returned this
    /// asset while recency was tracked (a resource budget set); 0 when none
    /// has (it ranks coldest).
    u64 last_used() const noexcept {
        return last_used_.load(std::memory_order_relaxed);
    }
    /// Serialized size of the full-parallelism master (what a cache-less
    /// server keeps on disk).
    u64 master_bytes() const noexcept { return master_bytes_; }
    /// Split budget chosen at encode time; ceiling for any client's request.
    u32 max_parallelism() const noexcept { return max_parallelism_; }

    virtual AssetKind kind() const noexcept = 0;
    virtual u64 num_symbols() const noexcept = 0;
    /// Wire form a full-asset response uses (file or chunked).
    virtual PayloadKind payload_kind() const noexcept = 0;

    /// Stream the full-asset wire, adapted to `parallelism` work items
    /// (caller clamps to max_parallelism()), into `sink` piece by piece:
    /// small owned structural sections plus borrowed views of the asset's
    /// shared payload storage. Metadata-only adaptation — the bitstream
    /// bytes are never re-encoded, and never copied either. Returns the
    /// split count the wire carries.
    virtual u32 combine_into(u32 parallelism, format::WireSink& sink) const = 0;
    /// Stream the range wire for symbols [lo, hi) (caller validates bounds)
    /// into `sink`, one RCR2 segment at a time. Returns covering splits.
    virtual u32 range_into(u64 lo, u64 hi, format::WireSink& sink) const = 0;

    /// Concrete payload accessors; nullptr when the asset is another kind.
    virtual const format::RecoilFile* file() const noexcept { return nullptr; }
    virtual const stream::ChunkedStream* chunked() const noexcept { return nullptr; }

protected:
    Asset(std::string name, u64 master_bytes, u32 max_parallelism)
        : name_(std::move(name)),
          master_bytes_(master_bytes),
          max_parallelism_(max_parallelism) {}

private:
    friend class AssetStore;  // assigns the ids at insertion, stamps last_used_
    std::string name_;
    u64 uid_ = 0;
    u64 instance_ = 0;
    /// Documented lock-free escape: stamped by resolve() on a shared asset.
    mutable std::atomic<u64> last_used_{0};
    u64 master_bytes_ = 0;
    u32 max_parallelism_ = 1;
};

/// A single Recoil container, static or indexed model.
class FileAsset final : public Asset {
public:
    FileAsset(std::string name, format::RecoilFile f);

    AssetKind kind() const noexcept override {
        return file_.is_indexed() ? AssetKind::indexed_file : AssetKind::static_file;
    }
    u64 num_symbols() const noexcept override { return file_.metadata.num_symbols; }
    PayloadKind payload_kind() const noexcept override { return PayloadKind::file; }
    u32 combine_into(u32 parallelism, format::WireSink& sink) const override;
    u32 range_into(u64 lo, u64 hi, format::WireSink& sink) const override;
    const format::RecoilFile* file() const noexcept override { return &file_; }

private:
    format::RecoilFile file_;
};

/// A chunked stream (frame/tile-structured content). Ranges are addressed in
/// the stream's flat symbol space and decompose into per-chunk segments.
class ChunkedAsset final : public Asset {
public:
    ChunkedAsset(std::string name, stream::ChunkedStream s);

    AssetKind kind() const noexcept override { return AssetKind::chunked; }
    u64 num_symbols() const noexcept override { return stream_.total_symbols(); }
    PayloadKind payload_kind() const noexcept override { return PayloadKind::chunked; }
    u32 combine_into(u32 parallelism, format::WireSink& sink) const override;
    u32 range_into(u64 lo, u64 hi, format::WireSink& sink) const override;
    const stream::ChunkedStream* chunked() const noexcept override { return &stream_; }

private:
    stream::ChunkedStream stream_;
};

}  // namespace recoil::serve
