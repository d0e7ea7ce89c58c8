#pragma once
// Multi-tenant open-loop traffic generation: the "million users" side of
// the serve study. zipf_plan (datasets.hpp) models ONE tenant's skewed key
// popularity; this layer composes N tenants — each with its own keyspace,
// Zipf skew and offered-rate share — under an open-loop arrival process
// (Poisson or deterministic inter-arrivals), with phase modifiers for the
// two regimes that break caches in production: a flash crowd (one key of
// one tenant suddenly absorbs a large fraction of all traffic) and a
// unique scan (a window of one-hit-wonder range requests, each a cache
// entry nobody asks for again). Everything is seed-deterministic
// so bench_serve's shard-scaling and tail-latency sections replay the
// identical trace at every shard count.

#include <cstddef>
#include <string>
#include <vector>

#include "util/ints.hpp"

namespace recoil::workload {

/// One tenant: its own asset universe and popularity skew. rate_share
/// weights how often the arrival process picks this tenant.
struct TenantSpec {
    std::string name;
    u32 keys = 64;
    double zipf_s = 1.0;
    double rate_share = 1.0;
};

enum class ArrivalProcess : u8 {
    poisson,        ///< exponential inter-arrivals at the offered rate
    deterministic,  ///< fixed inter-arrival = 1 / offered rate
};

/// A phase modifier over a fraction window [begin_frac, end_frac) of the
/// plan. Requests outside every phase window follow the steady-state
/// tenant/key distribution.
struct PhaseSpec {
    enum class Kind : u8 {
        flash_crowd,  ///< `fraction` of window requests hit tenant's key 1
        unique_scan,  ///< `fraction` of window requests become unique scans
    };
    Kind kind = Kind::flash_crowd;
    double begin_frac = 0.0;
    double end_frac = 0.0;
    u32 tenant = 0;         ///< flash_crowd: the tenant whose hot key spikes
    double fraction = 0.5;  ///< probability the modifier applies in-window
};

struct TrafficOptions {
    std::vector<TenantSpec> tenants;
    std::size_t requests = 10000;
    /// Open-loop offered rate (requests/second) driving arrival stamps.
    double offered_rps = 1000.0;
    ArrivalProcess arrivals = ArrivalProcess::poisson;
    std::vector<PhaseSpec> phases;
    u64 seed = 1;
};

/// One planned request. `key` is 1-based within the tenant's keyspace
/// (key 1 is the tenant's hottest). A `scan` arrival is a one-hit-wonder:
/// the consumer should turn it into a never-repeating range request, using
/// `index` to derive the unique offset.
struct Arrival {
    double at_seconds = 0.0;  ///< offset from trace start (open loop)
    std::size_t index = 0;    ///< position in the plan
    u32 tenant = 0;
    u32 key = 1;
    bool scan = false;
};

/// Stable asset name for a (tenant, key) pair — the corpus naming contract
/// shared by the seeder and the trace consumer.
std::string traffic_asset_name(const TenantSpec& tenant, u32 key);

/// Generate the full open-loop plan: seed-deterministic, sorted by
/// at_seconds (arrival order IS plan order). Throws via RECOIL_CHECK on an
/// empty tenant set, zero keys, or a non-positive offered rate.
std::vector<Arrival> traffic_plan(const TrafficOptions& opt);

}  // namespace recoil::workload
