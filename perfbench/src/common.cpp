#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "net/client.hpp"
#include "rans/indexed_model.hpp"
#include "rans/symbol_stats.hpp"
#include "simd/dispatch.hpp"
#include "workload/datasets.hpp"

namespace pb {

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double supported_tail_quantile(std::size_t n) {
    for (double q : {0.99, 0.98, 0.95, 0.90})
        if (static_cast<double>(n) * (1 - q) >= 10) return q;
    return 0.5;
}

// ---- result sheet ----------------------------------------------------------

void Sheet::set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    }
    metrics.push_back({name, {value, unit}});
}

std::string Sheet::json() const {
    std::ostringstream o;
    o << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics) {
        char num[64];
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::snprintf(num, sizeof(num), "%.17g", v);
        o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
          << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    o << "}}";
    return o.str();
}

void print_host(const std::string& git_sha) {
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    std::printf("host: cores=%u cpu=\"%s\" simd=%s compiler=\"%s\" build=%s "
                "git=%s\n",
                std::thread::hardware_concurrency(), model.c_str(),
                simd::backend_name(simd::pick_backend()), PB_COMPILER,
                PB_BUILD_TYPE, git_sha.c_str());
}

void print_skipped(const std::string& what, const std::string& reason) {
    std::printf("gate %s: skipped: %s\n", what.c_str(), reason.c_str());
}

// ---- tracing ---------------------------------------------------------------

Tracer& tracer() {
    static Tracer t;
    return t;
}

Tracer::ThreadLog& Tracer::log() {
    thread_local ThreadLog* mine = nullptr;
    if (mine == nullptr) {
        std::lock_guard<std::mutex> lk(mu_);
        logs_.push_back(std::make_unique<ThreadLog>());
        mine = logs_.back().get();
        mine->tid = static_cast<u32>(logs_.size());
    }
    return *mine;
}

i64 Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
}

i64 Tracer::to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

void Tracer::record(const char* name, u64 fetch, Clock::time_point a,
                    Clock::time_point b) {
    if (!enabled_) return;
    ThreadLog& l = log();
    const i32 parent = l.stack.empty() ? -1 : l.stack.back();
    l.recs.push_back({name, fetch, parent, to_ns(a), to_ns(b)});
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const auto& l : logs_)
        for (const Rec& r : l->recs)
            if (name == r.name) out.push_back(static_cast<double>(r.t1_ns - r.t0_ns) * 1e-9);
    return out;
}

std::size_t Tracer::span_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& l : logs_) n += l->recs.size();
    return n;
}

std::map<std::string, double> Tracer::self_seconds(double& root_total) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, double> out;
    root_total = 0;
    for (const auto& l : logs_) {
        std::vector<i64> child(l->recs.size(), 0);
        for (const Rec& r : l->recs)
            if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.t1_ns - r.t0_ns;
        for (std::size_t i = 0; i < l->recs.size(); ++i) {
            const Rec& r = l->recs[i];
            const double self = static_cast<double>(r.t1_ns - r.t0_ns - child[i]) * 1e-9;
            std::string layer = r.name;
            if (r.parent < 0) {
                layer = "remainder";
                root_total += static_cast<double>(r.t1_ns - r.t0_ns) * 1e-9;
            } else if (auto dot = layer.find('.'); dot != std::string::npos) {
                layer.resize(dot);
            }
            out[layer] += self;
        }
    }
    return out;
}

void Tracer::write_chrome(const std::filesystem::path& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::filesystem::create_directories(path.parent_path());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\"traceEvents\": [");
    bool first = true;
    for (const auto& l : logs_) {
        for (const Rec& r : l->recs) {
            std::string cat = r.name;
            if (auto dot = cat.find('.'); dot != std::string::npos) cat.resize(dot);
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                         "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                         "\"args\": {\"fetch\": %llu}}",
                         first ? "" : ",", r.name, cat.c_str(),
                         static_cast<double>(r.t0_ns) * 1e-3,
                         static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3, l->tid,
                         static_cast<unsigned long long>(r.fetch));
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

Span::Span(const char* name, u64 fetch) : Span(name, fetch, Clock::now()) {}

Span::Span(const char* name, u64 fetch, Clock::time_point start) {
    Tracer& t = tracer();
    if (!t.enabled()) return;
    log_ = &t.log();
    const i32 parent = log_->stack.empty() ? -1 : log_->stack.back();
    idx_ = static_cast<i32>(log_->recs.size());
    log_->recs.push_back({name, fetch, parent, t.to_ns(start), 0});
    log_->stack.push_back(idx_);
}

Span::~Span() {
    if (log_ == nullptr) return;
    log_->recs[static_cast<std::size_t>(idx_)].t1_ns = tracer().now_ns();
    log_->stack.pop_back();
}

void report_trace(Sheet& sheet, double overhead_pct) {
    double root_total = 0;
    const auto self = tracer().self_seconds(root_total);
    auto share = [&](const std::string& layer) {
        auto it = self.find(layer);
        return it == self.end() || root_total <= 0 ? 0.0
                                                   : 100.0 * it->second / root_total;
    };
    std::printf("trace: %zu spans, %.3f s under fetch roots; self time by layer:",
                tracer().span_count(), root_total);
    for (const char* layer : kTraceLayers) {
        sheet.set(std::string("trace.self_pct.") + layer, share(layer), "%");
        std::printf(" %s=%.1f%%", layer, share(layer));
    }
    std::printf(" remainder=%.1f%%\n", share("remainder"));
    sheet.set("trace.remainder_pct", share("remainder"), "%");
    sheet.set("trace.overhead_pct", overhead_pct, "%");
    sheet.set("trace.spans", static_cast<double>(tracer().span_count()), "count");
}

// ---- /proc readers ---------------------------------------------------------

namespace {

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

u64 status_field(const std::string& status, const char* key) {
    const auto pos = status.find(key);
    if (pos == std::string::npos) return 0;
    return std::strtoull(status.c_str() + pos + std::strlen(key), nullptr, 10);
}

}  // namespace

ProcSample sample_proc(pid_t pid) {
    ProcSample s;
    const std::filesystem::path base = "/proc/" + std::to_string(pid);
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(base / "task", ec)) {
        const std::string sched = slurp(task.path() / "schedstat");
        s.cpu_seconds += static_cast<double>(std::strtoull(sched.c_str(), nullptr, 10)) * 1e-9;
    }
    s.hwm_mb = static_cast<double>(status_field(slurp(base / "status"), "VmHWM:")) / 1024.0;
    return s;
}

// ---- daemon child process --------------------------------------------------

DaemonProc::DaemonProc(const std::string& binary, const std::vector<std::string>& args) {
    int fds[2];
    RECOIL_CHECK(::pipe2(fds, O_CLOEXEC) == 0, "perfbench: pipe failed");
    std::vector<std::string> storage{binary};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
        // Child: only async-signal-safe calls until exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(fds[1], STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    RECOIL_CHECK(pid_ > 0, "perfbench: fork failed");

    // The daemon prints "recoil_served listening on ADDR:PORT (...)" once it
    // is bound and listening.
    std::string buf;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (buf.find('\n') == std::string::npos && Clock::now() < deadline) {
        pollfd p{out_fd_, POLLIN, 0};
        if (::poll(&p, 1, 100) <= 0) continue;
        char chunk[512];
        const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    const auto at = buf.find("listening on ");
    const auto colon = at == std::string::npos ? at : buf.find(':', at);
    if (colon != std::string::npos)
        port_ = static_cast<u16>(std::atoi(buf.c_str() + colon + 1));
    if (port_ == 0) {
        stop();
        throw Error("perfbench: recoil_served did not start: " + buf + tail);
    }
}

int DaemonProc::stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        pollfd p{out_fd_, POLLIN, 0};
        if (Clock::now() >= deadline) {
            ::kill(pid_, SIGKILL);
            break;
        }
        if (::poll(&p, 1, 100) <= 0) continue;
        char chunk[512];
        const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
        if (n <= 0) break;
        tail.append(chunk, static_cast<std::size_t>(n));
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    ::close(out_fd_);
    pid_ = -1;
    out_fd_ = -1;
    return status;
}

DaemonProc::~DaemonProc() { stop(); }

void wait_accepting(u16 port) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        try {
            net::ClientOptions o;
            o.port = port;
            o.connect_timeout = std::chrono::milliseconds(500);
            net::Client probe(o);
            return;
        } catch (const net::NetError&) {
            if (Clock::now() > deadline) throw;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
}

u64 scrape_counter(const std::string& json, const std::string& key) {
    std::string escaped;
    for (char c : key) {
        if (c == '"') escaped += '\\';
        escaped += c;
    }
    const std::string needle = "\"" + escaped + "\": ";
    const auto pos = json.find(needle);
    if (pos == std::string::npos) return 0;
    return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

// ---- corpus ----------------------------------------------------------------

namespace {

std::vector<u32> freqs_of(const StaticModel& m) {
    std::vector<u32> f(m.alphabet());
    for (u32 s = 0; s < m.alphabet(); ++s) f[s] = m.freq(s);
    return f;
}

CorpusAsset byte_asset(std::string name, std::string kind, std::vector<u8> data) {
    CorpusAsset a{std::move(name), std::move(kind), std::move(data), {}, {}};
    StaticModel model(histogram(a.source), 11);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(a.source), model, kMaxSplits);
    a.file = format::make_recoil_file(enc, model, 1);
    return a;
}

/// The indexed latent asset: Gaussian scale-bin models as in
/// LatentDataset::build_models, kept as StaticModels so the container can
/// carry their pdfs.
CorpusAsset latent_asset(u64 seed, u64 bytes) {
    constexpr u32 kProbBits = 14;
    constexpr u32 kModels = 16;
    auto ds = workload::gen_latents("div2k801", bytes / 2, 2.2, seed, kModels);
    std::vector<StaticModel> models;
    format::RecoilFile::IndexedPayload payload;
    for (double sigma : ds.bin_sigma) {
        std::vector<u64> counts(ds.alphabet);
        const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
        for (u32 s = 0; s < ds.alphabet; ++s) {
            const double r = static_cast<double>(static_cast<i32>(s) - workload::kLatentOffset);
            counts[s] = 1 + static_cast<u64>(std::exp(-r * r * inv2s2) * 1e12);
        }
        models.emplace_back(counts, kProbBits);
        payload.freqs.push_back(freqs_of(models.back()));
    }
    payload.ids = ds.ids;
    IndexedModelSet set(std::move(models), ds.ids);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), set, kMaxSplits);

    CorpusAsset a;
    a.name = "latent";
    a.kind = "latent";
    a.source.resize(ds.symbols.size() * 2);
    std::memcpy(a.source.data(), ds.symbols.data(), a.source.size());
    a.file.sym_width = 2;
    a.file.prob_bits = kProbBits;
    a.file.metadata = std::move(enc.metadata);
    a.file.units = std::move(enc.bitstream.units);
    a.file.model = std::move(payload);
    return a;
}

}  // namespace

Corpus make_corpus(u64 seed, u64 bytes_each) {
    Corpus c;
    auto text = workload::gen_text(bytes_each, seed * 31 + 1);
    auto expo = workload::gen_exponential(bytes_each, 50, seed * 31 + 2);
    auto stream_src = workload::gen_text(bytes_each, seed * 31 + 4);

    const auto t0 = Clock::now();
    c.assets.push_back(byte_asset("text", "text", std::move(text)));
    c.assets.push_back(byte_asset("exp", "exp", std::move(expo)));
    c.assets.push_back(latent_asset(seed * 31 + 3, bytes_each));
    // 16 chunks x 136 splits = the same 2176-way ceiling as the flat assets.
    constexpr u32 kChunks = 16;
    stream::ChunkedEncoder enc({11, kMaxSplits / kChunks});
    const u64 step = stream_src.size() / kChunks;
    for (u32 i = 0; i < kChunks; ++i) {
        const u64 lo = i * step;
        const u64 hi = i + 1 == kChunks ? stream_src.size() : lo + step;
        enc.add_chunk(std::span<const u8>(stream_src).subspan(lo, hi - lo));
    }
    CorpusAsset ch;
    ch.name = "stream";
    ch.kind = "chunked";
    ch.chunked = enc.finish();
    ch.source = std::move(stream_src);
    c.assets.push_back(std::move(ch));
    c.encode_seconds = seconds_between(t0, Clock::now());
    for (const auto& a : c.assets) c.source_bytes += a.source.size();
    return c;
}

std::vector<u8> serve_wire(const CorpusAsset& a, u32 cls) {
    if (a.is_chunked()) return a.chunked.combined(cls).serialize();
    return format::save_recoil_file(a.file, combine_splits(a.file.metadata, cls));
}

namespace {

template <typename TSym, typename Model>
std::vector<TSym> decode_file(const format::RecoilFile& f, const Model& model,
                              ThreadPool* pool, RecoilDecodeStats* stats) {
    std::vector<TSym> out(f.metadata.num_symbols);
    simd::SimdRangeFn<TSym> range{simd::pick_backend()};
    recoil_decode_into<Rans32, 32, TSym>(std::span<const u16>(f.units), f.metadata,
                                         model.tables(), std::span<TSym>(out), pool,
                                         stats, range);
    return out;
}

std::vector<u8> as_bytes(const std::vector<u16>& v) {
    std::vector<u8> b(v.size() * 2);
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

}  // namespace

std::vector<u8> client_decode(std::span<const u8> wire, bool chunked, ThreadPool* pool,
                              u64 fetch, RecoilDecodeStats* sync_stats) {
    if (chunked) {
        stream::ChunkedStream s;
        {
            Span sp("format.parse", fetch);
            s = stream::ChunkedStream::parse(wire);
        }
        Span sp("simd.decode", fetch);
        return stream::decode_chunked(s, pool);
    }
    format::RecoilFile f;
    {
        Span sp("format.parse", fetch);
        f = format::load_recoil_file(wire);
    }
    if (f.is_indexed()) {
        std::optional<IndexedModelSet> set;
        {
            Span sp("rans.model", fetch);
            set.emplace(f.build_indexed_model());
        }
        std::vector<u16> out;
        {
            Span sp("simd.decode", fetch);
            out = decode_file<u16>(f, *set, pool, sync_stats);
        }
        return as_bytes(out);
    }
    std::optional<StaticModel> model;
    {
        Span sp("rans.model", fetch);
        model.emplace(f.build_static_model());
    }
    Span sp("simd.decode", fetch);
    return decode_file<u8>(f, *model, pool, sync_stats);
}

}  // namespace pb
