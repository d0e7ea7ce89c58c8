#pragma once
// Shared pieces of the benchmark driver: clocks and percentiles, the span
// tracer, the result sheet printed as the last stdout line, /proc readers
// for the daemon process, the recoil_served child process, and the mixed
// corpus that decode-classes and cold-stream both fetch.

#include <sys/types.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "format/container.hpp"
#include "stream/chunked.hpp"
#include "util/thread_pool.hpp"

namespace pb {

using namespace recoil;
using Clock = std::chrono::steady_clock;

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string daemon;              ///< path of the recoil_served binary
    std::filesystem::path work;      ///< work directory for the daemon stores
    std::filesystem::path trace_out; ///< Chrome trace written by traced runs
};

struct Sheet;
void run_decode_classes(const Args& args, Sheet& sheet);
void run_cold_stream(const Args& args, Sheet& sheet);

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Thread CPU time in seconds (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_seconds();

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest of p99/p98/p95/p90/p50 that leaves at least ten samples
/// beyond it; returns the quantile chosen.
double supported_tail_quantile(std::size_t n);

// ---- result sheet ----------------------------------------------------------

struct Sheet {
    u64 attempted = 0;
    u64 failed = 0;
    /// Metrics a workload does not set are reported as 0 and listed as not
    /// exercised.
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

    void set(const std::string& name, double value, const std::string& unit);
    /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
    std::string json() const;
};

/// Host fingerprint and gate line printed before every result.
void print_host(const std::string& git_sha);
/// A gate or comparator that could not run on this host: printed, never
/// silently passed.
void print_skipped(const std::string& what, const std::string& reason);

// ---- tracing ---------------------------------------------------------------

/// Spans recorded by the benchmark around each call into a layer. Disabled
/// (the untraced run) a Span costs one branch and records nothing.
class Tracer {
public:
    struct Rec {
        const char* name;
        u64 fetch;
        i32 parent;  ///< index into the same thread's records, -1 = root
        i64 t0_ns, t1_ns;
    };
    struct ThreadLog {
        u32 tid = 0;
        std::vector<Rec> recs;
        std::vector<i32> stack;
    };

    bool enabled() const noexcept { return enabled_; }
    void enable(bool on) noexcept { enabled_ = on; }
    ThreadLog& log();  ///< this thread's log (registered on first use)
    i64 now_ns() const;
    i64 to_ns(Clock::time_point t) const;
    std::size_t span_count() const;
    /// Record a finished span [a, b) as a child of this thread's open span.
    void record(const char* name, u64 fetch, Clock::time_point a, Clock::time_point b);
    /// Durations (seconds) of every span with this exact name.
    std::vector<double> durations(const std::string& name) const;

    /// Per-layer self time (span minus its children), keyed by the layer
    /// prefix of the span name ("core.combine" -> "core"); the root "fetch"
    /// spans' self time is reported under "remainder". Also returns the
    /// summed duration of all roots.
    std::map<std::string, double> self_seconds(double& root_total) const;
    /// Chrome trace-event JSON (chrome://tracing, Perfetto).
    void write_chrome(const std::filesystem::path& path) const;

private:
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

Tracer& tracer();

class Span {
public:
    Span(const char* name, u64 fetch);
    /// A span that began earlier than its construction (an open-loop fetch
    /// starts at its due time, not when a sender picked it up).
    Span(const char* name, u64 fetch, Clock::time_point start);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer::ThreadLog* log_ = nullptr;
    i32 idx_ = -1;
};

/// Adds per-layer self-time shares and the remainder to the sheet.
void report_trace(Sheet& sheet, double overhead_pct);
/// Layers whose self time the traced run reports (span-name prefixes).
inline const char* const kTraceLayers[] = {"core", "format", "simd",
                                           "rans", "net",    "client"};

// ---- /proc readers ---------------------------------------------------------

struct ProcSample {
    double cpu_seconds = 0;  ///< sum of every task's on-CPU time (schedstat)
    double hwm_mb = 0;       ///< VmHWM
};
ProcSample sample_proc(pid_t pid);

// ---- daemon child process --------------------------------------------------

/// recoil_served as a child process on an ephemeral loopback port. The
/// destructor drains it (SIGTERM) and reaps it.
class DaemonProc {
public:
    DaemonProc(const std::string& binary, const std::vector<std::string>& args);
    ~DaemonProc();
    DaemonProc(const DaemonProc&) = delete;
    DaemonProc& operator=(const DaemonProc&) = delete;

    pid_t pid() const noexcept { return pid_; }
    u16 port() const noexcept { return port_; }
    /// SIGTERM, read the rest of stdout, reap. Returns the exit status and
    /// leaves the daemon's drain summary in `tail`.
    int stop();
    std::string tail;

private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    u16 port_ = 0;
};

/// Poll-connect until the daemon accepts a connection (boot complete).
void wait_accepting(u16 port);

/// Pull one integer counter out of a `!metrics.json` scrape (0 if absent).
u64 scrape_counter(const std::string& json, const std::string& key);

// ---- corpus ----------------------------------------------------------------

/// One encoded asset of the mixed corpus plus the source it must decode to.
struct CorpusAsset {
    std::string name;
    std::string kind;  ///< text | exp | latent | chunked
    std::vector<u8> source;   ///< the bytes a decode must reproduce
    format::RecoilFile file;  ///< text/exp/latent (unused for chunked)
    stream::ChunkedStream chunked;
    bool is_chunked() const noexcept { return kind == "chunked"; }
};

struct Corpus {
    std::vector<CorpusAsset> assets;
    u64 source_bytes = 0;
    double encode_seconds = 0;  ///< time inside the encoders only
};

inline constexpr u32 kMaxSplits = 2176;
inline constexpr u32 kClasses[] = {1, 4, 16, 2176};

/// text, exponential bytes, an indexed u16 latent set and a chunked text
/// stream, each of `bytes_each` source bytes, all encoded at 2176 splits.
Corpus make_corpus(u64 seed, u64 bytes_each);

/// Serialize `a` adapted to `cls` (combine + container) — what a server
/// sends a client of that parallelism.
std::vector<u8> serve_wire(const CorpusAsset& a, u32 cls);

/// Decode a wire as a client would: parse, rebuild the model, SIMD decode
/// across `pool` (null = calling thread only). Spans are recorded under
/// `fetch`. Returns the decoded bytes; `sync_stats` collects Recoil
/// synchronization counts when non-null.
std::vector<u8> client_decode(std::span<const u8> wire, bool chunked,
                              ThreadPool* pool, u64 fetch,
                              RecoilDecodeStats* sync_stats = nullptr);

}  // namespace pb
