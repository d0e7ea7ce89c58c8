#include "serve/session.hpp"

#include "util/error.hpp"

namespace recoil::serve {

Session::Session(ContentServer& server, Options opt)
    : server_(server),
      c_submitted_(server.metrics().counter("session_submitted_total")),
      c_completed_(server.metrics().counter("session_completed_total")),
      c_failed_(server.metrics().counter("session_failed_total")),
      c_streamed_(server.metrics().counter("session_streamed_total")),
      c_frames_(server.metrics().counter("session_frames_delivered_total")) {
    // One long-lived loop per worker thread: the thread count IS the serve
    // concurrency.
    const unsigned workers = opt.workers == 0 ? 1 : opt.workers;
    for (unsigned i = 0; i < workers; ++i)
        threads_.spawn("recoil-sess", i, [this] { worker_loop(); });
}

Session::~Session() {
    {
        util::MutexLock lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    // The loops exit once they observe stopping_ with the queue drained.
    threads_.join_all();
}

std::shared_future<ServeResult> Session::submit(ServeRequest req, Callback cb) {
    std::promise<ServeResult> promise;
    std::shared_future<ServeResult> fut = promise.get_future().share();
    {
        util::MutexLock lk(mu_);
        RECOIL_CHECK(!stopping_, "Session::submit after shutdown began");
        queue_.push_back(Task{std::move(req), std::move(promise), std::move(cb)});
        ++stats_.submitted;
    }
    c_submitted_.inc();
    cv_.notify_one();
    return fut;
}

std::shared_future<ServeResult> Session::submit_stream(ServeRequest req,
                                                       FrameCallback on_frame,
                                                       StreamOptions opt) {
    std::promise<ServeResult> promise;
    std::shared_future<ServeResult> fut = promise.get_future().share();
    Task task{std::move(req), std::move(promise), {}};
    task.streamed = true;
    task.frame_cb = std::move(on_frame);
    task.stream_opt = opt;
    {
        util::MutexLock lk(mu_);
        RECOIL_CHECK(!stopping_, "Session::submit_stream after shutdown began");
        queue_.push_back(std::move(task));
        ++stats_.submitted;
    }
    c_submitted_.inc();
    cv_.notify_one();
    return fut;
}

void Session::wait_idle() {
    util::MutexLock lk(mu_);
    while (!(queue_.empty() && active_ == 0)) idle_cv_.wait(mu_);
}

std::size_t Session::in_flight() const {
    util::MutexLock lk(mu_);
    return queue_.size() + active_;
}

Session::Stats Session::stats() const {
    util::MutexLock lk(mu_);
    return stats_;
}

void Session::worker_loop() {
    for (;;) {
        Task task;
        {
            util::MutexLock lk(mu_);
            while (!stopping_ && queue_.empty()) cv_.wait(mu_);
            if (queue_.empty()) return;  // stopping, and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        // serve()/serve_stream() are noexcept; failures arrive as typed
        // results (or a typed error header frame).
        ServeResult res;
        u64 frames = 0;
        if (task.streamed) {
            ServeStream stream = server_.serve_stream(task.req, task.stream_opt);
            while (auto frame = stream.next_frame()) {
                if (!task.frame_cb) continue;
                ++frames;
                try {
                    task.frame_cb(*frame);
                } catch (...) {
                    // Frame callbacks must not tear down the session; the
                    // stream still drains to its FIN.
                }
            }
            res = stream.head();
        } else {
            res = server_.serve(task.req);
        }
        if (task.cb) {
            try {
                task.cb(res);
            } catch (...) {
                // Completion callbacks must not tear down the session.
            }
        }
        const bool ok = res.ok();
        task.promise.set_value(std::move(res));
        c_completed_.inc();
        if (!ok) c_failed_.inc();
        if (task.streamed) c_streamed_.inc();
        c_frames_.inc(frames);
        {
            util::MutexLock lk(mu_);
            --active_;
            ++stats_.completed;
            if (!ok) ++stats_.failed;
            if (task.streamed) ++stats_.streamed;
            stats_.frames_delivered += frames;
            if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
        }
    }
}

}  // namespace recoil::serve
