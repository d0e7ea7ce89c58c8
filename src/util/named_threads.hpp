#pragma once
// RAII thread group for subsystems that need real OS threads but live in
// directories where naming std::thread is banned (tools/lint.py: serve/ and
// net/ must borrow their concurrency from util/). The two sanctioned thread
// substrates are ThreadPool, for decode fork-join, and this helper, for
// long-lived loops that BLOCK (epoll_wait, a condition variable): the
// daemon's event loops and Session's workers each get a dedicated named
// thread.
//
// Join discipline: join_all() (or destruction) blocks until every spawned
// thread returns. The caller is responsible for making its loops exit —
// e.g. the daemon's drain eventfd — before destroying the resources the
// threads use.

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace recoil::util {

/// Name the calling thread "<prefix>-<index>" (truncated to the kernel's
/// 15-char limit; no-op off Linux) so profiles and slow-request logs
/// attribute time to subsystems. Used by NamedThreads and ThreadPool.
inline void name_current_thread(const std::string& prefix, unsigned index) {
#if defined(__linux__)
    std::string name = prefix + "-" + std::to_string(index);
    if (name.size() > 15) name.resize(15);
    pthread_setname_np(pthread_self(), name.c_str());
#else
    (void)prefix;
    (void)index;
#endif
}

class NamedThreads {
public:
    NamedThreads() = default;
    ~NamedThreads() { join_all(); }
    NamedThreads(const NamedThreads&) = delete;
    NamedThreads& operator=(const NamedThreads&) = delete;

    /// Start `fn` on a new thread named "<prefix>-<index>" (visible in
    /// /proc and debuggers via name_current_thread).
    void spawn(const char* prefix, unsigned index, std::function<void()> fn) {
        threads_.emplace_back(
            [prefix, index, fn = std::move(fn)] {
                name_current_thread(prefix, index);
                fn();
            });
    }

    std::size_t size() const noexcept { return threads_.size(); }

    /// Join every spawned thread; idempotent.
    void join_all() {
        for (std::thread& t : threads_)
            if (t.joinable()) t.join();
        threads_.clear();
    }

private:
    std::vector<std::thread> threads_;
};

}  // namespace recoil::util
