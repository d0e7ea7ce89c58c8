// Unit tests for the thread pool used by every parallel decode path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "util/thread_pool.hpp"

namespace recoil {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(1000, [&](u64 i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneTasks) {
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](u64) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, [&](u64 i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<u64> sum{0};
        pool.parallel_for(100, [&](u64 i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, ActuallyParallel) {
    ThreadPool pool(4);
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    pool.parallel_for(16, [&](u64) {
        const int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        // Hold the task a little so tasks overlap.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        concurrent.fetch_sub(1);
    });
    EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
    ThreadPool pool(1);
    std::atomic<u64> sum{0};
    pool.parallel_for(257, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 257u * 258 / 2);
}

TEST(ThreadPool, LargeFanOut) {
    ThreadPool pool(8);
    std::atomic<u64> count{0};
    pool.parallel_for(100000, [&](u64) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100000u);
}

}  // namespace
}  // namespace recoil
