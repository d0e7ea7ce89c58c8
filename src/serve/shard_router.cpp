#include "serve/shard_router.hpp"

#include <algorithm>

#include "format/wire_io.hpp"

namespace recoil::serve {

namespace {

/// Ring points per shard. On 8 shards every shard's key load stays within
/// ±35% of the mean (pinned by tests/test_shard.cpp); the ring costs
/// shards * 128 * 16 bytes.
constexpr u32 kVnodes = 128;
/// Fraction of the even share every shard keeps regardless of its weight:
/// only the remainder is dealt by stored bytes or heat, so a cold shard
/// can always warm back up.
constexpr double kBudgetFloor = 0.25;

/// FNV-1a alone clusters badly on the structured names the ring hashes
/// ("shard-3#17", "tenant/asset-42"): measured spread over 8 shards ran
/// past 2x the mean. A splitmix64 finalizer decorrelates the low entropy
/// FNV leaves in the high bits.
u64 mix64(u64 x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

u64 hash_bytes(std::string_view s) {
    return mix64(format::fnv1a(
        {reinterpret_cast<const u8*>(s.data()), s.size()}));
}

}  // namespace

ShardedServer::ShardedServer(ShardedOptions opt) : opt_(std::move(opt)) {
    if (opt_.shards == 0) opt_.shards = 1;
    const u32 n = opt_.shards;

    // Each shard's initial budget: its floor plus a share of the rest by
    // the master bytes its partition stores (evenly when none stores any),
    // so a shard whose assets fill most of the corpus starts with room to
    // hold them. Rebalance passes then follow the observed heat.
    std::vector<u64> stored(n, 0);
    shards_.reserve(n);
    for (u32 i = 0; i < n; ++i) {
        ServerOptions so = opt_.server;
        so.mem_budget_bytes = 0;  // dealt below
        Shard s;
        s.server = std::make_unique<ContentServer>(so);
        if (!opt_.store_dir.empty()) {
            auto disk = std::make_shared<DiskStore>(
                opt_.store_dir / ("shard-" + std::to_string(i)));
            stored[i] = disk->stored_bytes();
            s.server->store().attach_backing(std::move(disk));
        }
        shards_.push_back(std::move(s));
    }
    budgets_ = deal(stored);
    for (u32 i = 0; i < n; ++i)
        shards_[i].server->governor().set_budget(budgets_[i]);
    last_wire_bytes_.assign(n, 0);

    // The ring: kVnodes points per shard, keyed by a stable derived name
    // so the same shard count always produces the same routing.
    ring_.reserve(static_cast<std::size_t>(n) * kVnodes);
    for (u32 i = 0; i < n; ++i)
        for (u32 v = 0; v < kVnodes; ++v)
            ring_.emplace_back(hash_bytes("shard-" + std::to_string(i) +
                                          "#" + std::to_string(v)),
                               i);
    std::sort(ring_.begin(), ring_.end());

    init_metrics();
}

u32 ShardedServer::shard_of(std::string_view asset) const noexcept {
    if (shards_.size() == 1) return 0;
    const u64 h = hash_bytes(asset);
    // First ring point clockwise of the key's hash; wrap past the top.
    auto it = std::upper_bound(
        ring_.begin(), ring_.end(), h,
        [](u64 lhs, const std::pair<u64, u32>& p) { return lhs < p.first; });
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
}

void ShardedServer::ensure_local(u32 home, const std::string& name) noexcept {
    if (shards_.size() < 2) return;
    ContentServer& server = *shards_[home].server;
    try {
        // Memory hit or a demand-load from the home partition: nothing to
        // fetch. A corrupt local copy throws — leave it for the serve path
        // to surface as its typed StoreError. find() first: only the serve
        // path's resolve() stamps recency.
        if (server.store().find(name) != nullptr ||
            server.store().resolve(name) != nullptr)
            return;
    } catch (...) {
        return;
    }
    for (u32 j = 0; j < shards_.size(); ++j) {
        if (j == home) continue;
        const std::shared_ptr<DiskStore> peer =
            shards_[j].server->store().backing();
        if (peer == nullptr) continue;
        try {
            const auto loaded = peer->load(name);
            if (!loaded) continue;
            const u64 bytes = loaded->info.container_bytes;
            // Two racing fetchers may both adopt; the second replaces the
            // first under a fresh uid — one wasted mmap, never corruption.
            server.store().adopt(*loaded);
            peer_fetches_.fetch_add(1, std::memory_order_relaxed);
            peer_fetch_bytes_.fetch_add(bytes, std::memory_order_relaxed);
            return;
        } catch (...) {
            continue;  // a corrupt peer copy disqualifies that peer only
        }
    }
    peer_fetch_misses_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedServer::note_routed() noexcept {
    const u64 tick = routed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opt_.rebalance_every != 0 && tick % opt_.rebalance_every == 0)
        rebalance();
}

ServeResult ShardedServer::serve(const ServeRequest& req) noexcept {
    if (is_introspection(req)) return serve_introspection(metrics_, req);
    const u32 home = shard_of(req.asset);
    ensure_local(home, req.asset);
    note_routed();
    return shards_[home].server->serve(req);
}

ServeStream ShardedServer::serve_stream(const ServeRequest& req) noexcept {
    const u32 home = shard_of(req.asset);
    if (!is_introspection(req)) {
        ensure_local(home, req.asset);
        note_routed();
    }
    return shards_[home].server->serve_stream(req);
}

ServeStream ShardedServer::serve_frame(
    std::span<const u8> request_frame) noexcept {
    ServeRequest req;
    try {
        req = decode_request(request_frame);
    } catch (const ProtocolError& e) {
        // A shard counts the failed request, as a single server would.
        return shards_[0].server->reject(e.code(), e.what());
    } catch (const std::exception& e) {
        return shards_[0].server->reject(ErrorCode::internal, e.what());
    }
    if ((req.accept & kAcceptStreamed) != 0 && !is_introspection(req))
        return serve_stream(req);
    return ServeStream::reply(serve(req));
}

std::shared_ptr<const Asset> ShardedServer::encode_bytes(
    std::string name, std::span<const u8> data, u32 max_splits,
    u32 prob_bits) {
    const u32 home = shard_of(name);
    return shards_[home].server->store().encode_bytes(std::move(name), data,
                                                      max_splits, prob_bits);
}

std::vector<u64> ShardedServer::deal(const std::vector<u64>& weight) const {
    // Every shard keeps its floor (the protected fraction of the even
    // share); the remainder is dealt proportional to `weight`.
    const u32 n = static_cast<u32>(weight.size());
    const u64 total = opt_.total_budget_bytes;
    const u64 keep =
        static_cast<u64>(kBudgetFloor * static_cast<double>(total / n));
    const u64 spare = total - keep * n;
    u64 total_weight = 0;
    for (const u64 w : weight) total_weight += w;
    std::vector<u64> next(n, keep);
    u64 dealt = 0;
    u32 heaviest = 0;
    for (u32 i = 0; i < n; ++i) {
        const u64 share =
            total_weight == 0
                ? spare / n
                : static_cast<u64>(static_cast<double>(spare) *
                                   (static_cast<double>(weight[i]) /
                                    static_cast<double>(total_weight)));
        next[i] += share;
        dealt += share;
        if (weight[i] > weight[heaviest]) heaviest = i;
    }
    // Rounding remainder goes to the heaviest shard (deterministic: lowest
    // index on ties), keeping the dealt total exactly the global budget.
    next[heaviest] += spare - dealt;
    return next;
}

void ShardedServer::rebalance() {
    if (opt_.total_budget_bytes == 0 || shards_.size() < 2) return;
    util::MutexLock lk(rebalance_mu_);
    const u32 n = static_cast<u32>(shards_.size());

    // Heat is the wire bytes each shard served since the last pass, hits
    // and misses alike: a shard whose working set overflows its share
    // misses everything, and must still be seen as hot to win room.
    std::vector<u64> delta(n, 0);
    for (u32 i = 0; i < n; ++i) {
        const u64 served = shards_[i].server->totals().wire_bytes;
        delta[i] = served - last_wire_bytes_[i];
        last_wire_bytes_[i] = served;
    }
    const std::vector<u64> next = deal(delta);

    u64 moved = 0;
    std::vector<u32> shrunk;
    for (u32 i = 0; i < n; ++i) {
        if (next[i] == budgets_[i]) continue;
        moved += next[i] > budgets_[i] ? next[i] - budgets_[i]
                                       : budgets_[i] - next[i];
        if (next[i] < budgets_[i]) shrunk.push_back(i);
        shards_[i].server->governor().set_budget(next[i]);
        budgets_[i] = next[i];
    }
    budget_moved_.fetch_add(moved / 2, std::memory_order_relaxed);
    rebalances_.fetch_add(1, std::memory_order_relaxed);
    // A shrunk shard is over its new budget right now; make the pass
    // visible immediately instead of waiting for its next serve.
    for (u32 i : shrunk) shards_[i].server->governor().enforce();
}

std::vector<u64> ShardedServer::shard_budgets() const {
    util::MutexLock lk(rebalance_mu_);
    return budgets_;
}

ShardedServer::Totals ShardedServer::totals() const noexcept {
    Totals t;
    t.routed = routed_.load(std::memory_order_relaxed);
    t.peer_fetches = peer_fetches_.load(std::memory_order_relaxed);
    t.peer_fetch_bytes = peer_fetch_bytes_.load(std::memory_order_relaxed);
    t.peer_fetch_misses = peer_fetch_misses_.load(std::memory_order_relaxed);
    t.rebalances = rebalances_.load(std::memory_order_relaxed);
    t.budget_moved_bytes = budget_moved_.load(std::memory_order_relaxed);
    return t;
}

ContentServer::Totals ShardedServer::fleet_totals() const noexcept {
    ContentServer::Totals t;
    for (const Shard& s : shards_) {
        const ContentServer::Totals st = s.server->totals();
        t.requests += st.requests;
        t.failures += st.failures;
        t.cache_hits += st.cache_hits;
        t.range_requests += st.range_requests;
        t.streamed_requests += st.streamed_requests;
        t.wire_bytes += st.wire_bytes;
        t.coalesced_requests += st.coalesced_requests;
        t.bytes_saved += st.bytes_saved;
        t.governance_failures += st.governance_failures;
    }
    return t;
}

void ShardedServer::init_metrics() {
    using obs::MetricKind;
    auto& reg = metrics_;
    reg.register_callback("shard_servers", MetricKind::gauge,
                          [this] { return u64{shard_count()}; });
    reg.register_callback("shard_routed_total", MetricKind::counter, [this] {
        return routed_.load(std::memory_order_relaxed);
    });
    reg.register_callback("shard_peer_fetches_total", MetricKind::counter,
                          [this] {
                              return peer_fetches_.load(
                                  std::memory_order_relaxed);
                          });
    reg.register_callback("shard_peer_fetch_bytes_total", MetricKind::counter,
                          [this] {
                              return peer_fetch_bytes_.load(
                                  std::memory_order_relaxed);
                          });
    reg.register_callback("shard_peer_fetch_misses_total",
                          MetricKind::counter, [this] {
                              return peer_fetch_misses_.load(
                                  std::memory_order_relaxed);
                          });
    reg.register_callback("shard_rebalances_total", MetricKind::counter,
                          [this] {
                              return rebalances_.load(
                                  std::memory_order_relaxed);
                          });
    reg.register_callback("shard_budget_moved_bytes_total",
                          MetricKind::counter, [this] {
                              return budget_moved_.load(
                                  std::memory_order_relaxed);
                          });
    // Fleet aggregates under the base names (so the frozen-name snapshot
    // guard matches them unlabeled), plus one labeled series per shard.
    reg.register_callback("shard_requests_total", MetricKind::counter,
                          [this] { return fleet_totals().requests; });
    reg.register_callback("shard_wire_bytes_total", MetricKind::counter,
                          [this] { return fleet_totals().wire_bytes; });
    reg.register_callback("shard_cache_hit_bytes_total", MetricKind::counter,
                          [this] {
                              u64 sum = 0;
                              for (const Shard& s : shards_)
                                  sum += s.server->cache().stats().hit_bytes;
                              return sum;
                          });
    reg.register_callback("shard_budget_bytes", MetricKind::gauge, [this] {
        u64 sum = 0;
        for (const u64 b : shard_budgets()) sum += b;
        return sum;
    });
    reg.register_callback("shard_resident_bytes", MetricKind::gauge, [this] {
        u64 sum = 0;
        for (const Shard& s : shards_)
            sum += s.server->store().resident_bytes();
        return sum;
    });
    for (u32 i = 0; i < shard_count(); ++i) {
        const std::string label = "shard=\"" + std::to_string(i) + "\"";
        ContentServer* server = shards_[i].server.get();
        reg.register_callback("shard_requests_total", label,
                              MetricKind::counter, [server] {
                                  return server->totals().requests;
                              });
        reg.register_callback("shard_wire_bytes_total", label,
                              MetricKind::counter, [server] {
                                  return server->totals().wire_bytes;
                              });
        reg.register_callback("shard_cache_hit_bytes_total", label,
                              MetricKind::counter, [server] {
                                  return server->cache().stats().hit_bytes;
                              });
        reg.register_callback("shard_budget_bytes", label, MetricKind::gauge,
                              [server] {
                                  return server->governor().budget_bytes();
                              });
        reg.register_callback("shard_resident_bytes", label,
                              MetricKind::gauge, [server] {
                                  return server->store().resident_bytes();
                              });
    }
}

}  // namespace recoil::serve
