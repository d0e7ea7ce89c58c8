#pragma once
// Async submission front end of the serve subsystem, replacing the old
// barrier-only RequestScheduler: submit() returns immediately with a future
// (and optionally fires a completion callback), so a mixed fleet's requests
// overlap instead of advancing in lock-step batches. Workers call
// ContentServer::serve, which single-flights concurrent cold requests for
// the same response — submitting the same cold key from many workers costs
// one combine, and everyone shares the wire.

#include <deque>
#include <functional>
#include <future>

#include "serve/server.hpp"
#include "util/named_threads.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::serve {

class Session {
public:
    struct Options {
        /// Concurrent serves. >= 2 lets cold requests coalesce instead of
        /// serializing behind one worker.
        unsigned workers = 4;
    };
    /// Invoked on a worker thread when the request completes, before the
    /// future becomes ready. Exceptions are swallowed (workers must live).
    using Callback = std::function<void(const ServeResult&)>;

    explicit Session(ContentServer& server) : Session(server, Options()) {}
    Session(ContentServer& server, Options opt);
    /// Drains outstanding requests (every future becomes ready), then joins.
    ~Session() RECOIL_EXCLUDES(mu_);
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Invoked on a worker thread once per streamed frame, in stream order
    /// (header, bodies, FIN). The span is valid only for the call — a
    /// transport would write it to its socket, not retain it. Exceptions
    /// are swallowed (workers must live); the stream still runs to its end.
    using FrameCallback = std::function<void(std::span<const u8>)>;

    /// Queue a request; the shared future is also safe to drop (fire and
    /// forget) or to copy to multiple consumers.
    std::shared_future<ServeResult> submit(ServeRequest req, Callback cb = {})
        RECOIL_EXCLUDES(mu_);

    /// Queue a request served through ContentServer::serve_stream: frames
    /// are delivered to `on_frame` as the worker pulls them, and the future
    /// resolves with the stream's head status once the FIN has been
    /// delivered. The result carries stats but never a wire — the frames
    /// were the payload.
    std::shared_future<ServeResult> submit_stream(ServeRequest req,
                                                  FrameCallback on_frame,
                                                  StreamOptions opt = {})
        RECOIL_EXCLUDES(mu_);

    /// Block until every submitted request has completed.
    void wait_idle() RECOIL_EXCLUDES(mu_);

    /// Requests submitted but not yet completed.
    std::size_t in_flight() const RECOIL_EXCLUDES(mu_);

    /// Cumulative session-side counters (the server's totals() aggregate
    /// every session; these isolate one). Counters only — the API is
    /// otherwise unchanged.
    struct Stats {
        u64 submitted = 0;  ///< submit() + submit_stream() calls accepted
        u64 completed = 0;  ///< futures resolved (ok or typed failure)
        u64 failed = 0;     ///< completed with a non-ok code
        u64 streamed = 0;   ///< completed via submit_stream
        u64 frames_delivered = 0;  ///< frames handed to frame callbacks
    };
    Stats stats() const RECOIL_EXCLUDES(mu_);

private:
    struct Task {
        ServeRequest req;
        std::promise<ServeResult> promise;
        Callback cb;
        bool streamed = false;
        FrameCallback frame_cb;
        StreamOptions stream_opt;
    };

    void worker_loop() RECOIL_EXCLUDES(mu_);

    ContentServer& server_;
    // Fleet-wide session_* counters in the server's registry, shared across
    // every Session on that server (get-or-create by name) and incremented
    // in lockstep with the per-session stats_. References: the server — and
    // with it the registry — outlives its sessions by contract.
    obs::Counter& c_submitted_;
    obs::Counter& c_completed_;
    obs::Counter& c_failed_;
    obs::Counter& c_streamed_;
    obs::Counter& c_frames_;
    mutable util::Mutex mu_;
    util::CondVar cv_;       ///< workers: work available / stopping
    util::CondVar idle_cv_;  ///< wait_idle: everything completed
    std::deque<Task> queue_ RECOIL_GUARDED_BY(mu_);
    std::size_t active_ RECOIL_GUARDED_BY(mu_) = 0;  ///< tasks being served
    bool stopping_ RECOIL_GUARDED_BY(mu_) = false;
    Stats stats_ RECOIL_GUARDED_BY(mu_);
    /// The N worker loops, one named thread each (they block on cv_).
    /// Declared last: the destructor joins them while mu_/cv_ are alive.
    util::NamedThreads threads_;
};

}  // namespace recoil::serve
