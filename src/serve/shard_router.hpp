#pragma once
// Scale-out front door: a ShardedServer consistent-hashes asset names onto
// N fully independent ContentServer shards — each with its own
// MetadataCache, ResourceGovernor and DiskStore partition
// (`store_dir/shard-<i>`) — so independent assets never contend on one
// cache mutex, one flight map or one governor pass. Two coordination
// mechanisms connect the shards:
//
//   * Budget coordination. Every shard keeps a fixed floor (a quarter of
//     the even share) so a momentarily-cold shard is never starved to
//     zero; the rest of the global byte budget is dealt at construction by
//     the master bytes each partition stores, then periodically
//     REBALANCED proportional to each shard's observed heat (wire bytes
//     served since the last pass, hits and misses alike). Rebalancing
//     retargets each shard's ResourceGovernor (set_budget) and immediately
//     enforces on shrunk shards.
//
//   * Peer fetch. A shard that misses an asset everywhere locally (memory
//     AND its own partition) pulls the ENCODED master from the owning
//     peer's DiskStore as a zero-copy mmap view (AssetStore::adopt)
//     instead of re-encoding — the encode-once premise held across a
//     resharding: reopen a 1-shard corpus as N shards and every shard
//     serves every asset without one re-encode. Counted in Totals.
//
// The router mirrors ContentServer's transport surface (serve /
// serve_stream / serve_frame, which decodes each request frame once),
// intercepting "!metrics"/"!metrics.json" introspection to answer from its
// OWN registry — which carries the router-level shard_* families plus
// per-shard labeled series (`shard="i"`) polled from every shard's stats.

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/ints.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::serve {

struct ShardedOptions {
    /// Number of independent ContentServer shards (>= 1).
    u32 shards = 2;
    /// Global memory budget split across the shard governors (by stored
    /// master bytes at construction, by served bytes at each rebalance).
    /// 0 disables governance everywhere (ServerOptions::mem_budget_bytes on
    /// the per-shard options is ignored — the router owns the budget).
    u64 total_budget_bytes = 0;
    /// Routed requests between automatic rebalance passes; 0 = only
    /// explicit rebalance() calls.
    u64 rebalance_every = 0;
    /// Root of the partitioned disk corpus: shard i opens (and creates)
    /// `store_dir/shard-<i>`. Empty = memory-only shards (no peer fetch
    /// possible — there is no master to pull).
    std::filesystem::path store_dir;
    /// Per-shard server options. mem_budget_bytes is overridden by the
    /// router's budget split.
    ServerOptions server;
};

class ShardedServer {
public:
    explicit ShardedServer(ShardedOptions opt);

    u32 shard_count() const noexcept {
        return static_cast<u32>(shards_.size());
    }
    /// Consistent-hash ring lookup: the shard owning `asset`. Stable under
    /// a fixed shard count — reopening the same corpus routes every name
    /// identically.
    u32 shard_of(std::string_view asset) const noexcept;
    ContentServer& shard(u32 i) noexcept { return *shards_[i].server; }
    /// Router-level registry: shard_* totals plus per-shard labeled series
    /// (`shard="i"`). Distinct from each shard's own registry.
    obs::MetricsRegistry& metrics() noexcept { return metrics_; }

    /// Routed serving — ContentServer's surface, one hash away.
    /// Introspection names ("!...") are answered from the ROUTER registry.
    ServeResult serve(const ServeRequest& req) noexcept;
    ServeStream serve_stream(const ServeRequest& req) noexcept;
    ServeStream serve_frame(std::span<const u8> request_frame) noexcept;

    /// Encode-once into the owning shard (and its partition, when backed).
    std::shared_ptr<const Asset> encode_bytes(std::string name,
                                              std::span<const u8> data,
                                              u32 max_splits,
                                              u32 prob_bits = 11);

    /// One budget-coordination pass: weight each shard by the wire bytes
    /// it served since the previous pass and move the budget above every
    /// shard's floor (a quarter of its even share) toward the hotter
    /// shards. Shards whose budget shrank are enforced immediately. No-op
    /// when total_budget_bytes is 0 or there is a single shard.
    void rebalance() RECOIL_EXCLUDES(rebalance_mu_);
    /// Current per-shard budgets (index = shard).
    std::vector<u64> shard_budgets() const RECOIL_EXCLUDES(rebalance_mu_);

    struct Totals {
        u64 routed = 0;            ///< requests dispatched through the ring
        u64 peer_fetches = 0;      ///< masters adopted from a peer partition
        u64 peer_fetch_bytes = 0;  ///< container bytes those fetches mapped
        /// Local misses whose peer scan also came up empty (the request
        /// then fails unknown_asset on its home shard).
        u64 peer_fetch_misses = 0;
        u64 rebalances = 0;
        u64 budget_moved_bytes = 0;  ///< total budget displaced by passes
    };
    Totals totals() const noexcept;
    /// Sum of every shard's ContentServer totals — the fleet view.
    ContentServer::Totals fleet_totals() const noexcept;

private:
    struct Shard {
        std::unique_ptr<ContentServer> server;
    };

    /// Every shard's floor plus the rest of the global budget dealt in
    /// proportion to `weight` (evenly when every weight is 0).
    std::vector<u64> deal(const std::vector<u64>& weight) const;
    /// Make `name` servable on its home shard before dispatch: resolve
    /// locally, then scan peer partitions and adopt (peer fetch).
    void ensure_local(u32 home, const std::string& name) noexcept;
    void note_routed() noexcept;
    void init_metrics();

    ShardedOptions opt_;
    std::vector<Shard> shards_;
    /// Sorted (hash point, shard) ring; immutable after construction.
    std::vector<std::pair<u64, u32>> ring_;
    obs::MetricsRegistry metrics_;
    mutable util::Mutex rebalance_mu_;
    std::vector<u64> budgets_ RECOIL_GUARDED_BY(rebalance_mu_);
    /// Per-shard served wire bytes at the previous pass (delta baseline).
    std::vector<u64> last_wire_bytes_ RECOIL_GUARDED_BY(rebalance_mu_);
    std::atomic<u64> routed_{0};
    std::atomic<u64> peer_fetches_{0};
    std::atomic<u64> peer_fetch_bytes_{0};
    std::atomic<u64> peer_fetch_misses_{0};
    std::atomic<u64> rebalances_{0};
    std::atomic<u64> budget_moved_{0};
};

}  // namespace recoil::serve
