#pragma once
// Portable Clang Thread Safety Analysis annotations plus the annotated
// synchronization wrappers the rest of the tree locks with.
//
// Under Clang, RECOIL_GUARDED_BY/REQUIRES/EXCLUDES/... expand to the
// thread-safety attributes so `-Werror=thread-safety` turns lock-discipline
// mistakes (touching a guarded field without its mutex, calling a _locked()
// helper unlocked, re-acquiring a held mutex) into compile errors. Under
// GCC/MSVC they expand to nothing — zero runtime or layout cost either way.
// tests/compile_fail/ proves the annotations are live (a seeded violation
// must fail to compile), and docs/static_analysis.md spells out the
// conventions: every shared field carries RECOIL_GUARDED_BY, every
// *_locked() helper carries RECOIL_REQUIRES, public entry points carry
// RECOIL_EXCLUDES, and every deliberate escape (relaxed-atomic fast paths,
// the daemon's async-signal-safe drain) is a documented comment, not a
// silent hole.
//
// The wrappers mirror std types 1:1 — util::Mutex over std::mutex,
// util::SharedMutex over std::shared_mutex, util::CondVar over
// std::condition_variable — and stay drop-in compatible with
// std::unique_lock/std::scoped_lock/std::condition_variable_any via the
// usual lock()/unlock()/try_lock() surface (TSA only tracks acquisitions it
// can see, so generic std lock holders belong behind an annotated seam or a
// documented RECOIL_NO_THREAD_SAFETY_ANALYSIS escape). util::CondVar waits
// on the wrapped std::condition_variable directly (adopting the caller's
// held lock around the wait), so there is no condition_variable_any
// penalty for the annotation layer.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && (!defined(SWIG))
#define RECOIL_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define RECOIL_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

#define RECOIL_CAPABILITY(x) RECOIL_THREAD_ANNOTATION__(capability(x))
#define RECOIL_SCOPED_CAPABILITY RECOIL_THREAD_ANNOTATION__(scoped_lockable)

#define RECOIL_GUARDED_BY(x) RECOIL_THREAD_ANNOTATION__(guarded_by(x))
#define RECOIL_PT_GUARDED_BY(x) RECOIL_THREAD_ANNOTATION__(pt_guarded_by(x))

#define RECOIL_ACQUIRED_BEFORE(...) \
    RECOIL_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define RECOIL_ACQUIRED_AFTER(...) \
    RECOIL_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

#define RECOIL_REQUIRES(...) \
    RECOIL_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define RECOIL_REQUIRES_SHARED(...) \
    RECOIL_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

#define RECOIL_ACQUIRE(...) \
    RECOIL_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RECOIL_ACQUIRE_SHARED(...) \
    RECOIL_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RECOIL_RELEASE(...) \
    RECOIL_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RECOIL_RELEASE_SHARED(...) \
    RECOIL_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RECOIL_RELEASE_GENERIC(...) \
    RECOIL_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

#define RECOIL_TRY_ACQUIRE(...) \
    RECOIL_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define RECOIL_TRY_ACQUIRE_SHARED(...) \
    RECOIL_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

#define RECOIL_EXCLUDES(...) \
    RECOIL_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define RECOIL_ASSERT_CAPABILITY(x) \
    RECOIL_THREAD_ANNOTATION__(assert_capability(x))
#define RECOIL_RETURN_CAPABILITY(x) \
    RECOIL_THREAD_ANNOTATION__(lock_returned(x))

#define RECOIL_NO_THREAD_SAFETY_ANALYSIS \
    RECOIL_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace recoil::util {

/// std::mutex with the TSA `capability` attribute. Same size, same cost;
/// BasicLockable/Lockable, so std::unique_lock<util::Mutex> and
/// std::condition_variable_any still accept it where generic holders are
/// unavoidable.
class RECOIL_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() RECOIL_ACQUIRE() { mu_.lock(); }
    void unlock() RECOIL_RELEASE() { mu_.unlock(); }
    bool try_lock() RECOIL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    /// The wrapped mutex, for CondVar and std interop. Callers own the
    /// discipline: TSA cannot see locks taken through this handle.
    std::mutex& native() noexcept { return mu_; }

private:
    std::mutex mu_;
};

/// std::shared_mutex with the TSA `capability` attribute (exclusive +
/// shared modes).
class RECOIL_CAPABILITY("shared_mutex") SharedMutex {
public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex&) = delete;
    SharedMutex& operator=(const SharedMutex&) = delete;

    void lock() RECOIL_ACQUIRE() { mu_.lock(); }
    void unlock() RECOIL_RELEASE() { mu_.unlock(); }
    bool try_lock() RECOIL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    void lock_shared() RECOIL_ACQUIRE_SHARED() { mu_.lock_shared(); }
    void unlock_shared() RECOIL_RELEASE_SHARED() { mu_.unlock_shared(); }
    bool try_lock_shared() RECOIL_TRY_ACQUIRE_SHARED(true) {
        return mu_.try_lock_shared();
    }

private:
    std::shared_mutex mu_;
};

/// Scoped exclusive lock over util::Mutex — the annotated std::scoped_lock.
/// Held for its whole scope: code that must release early (unlock before
/// notify) ends the scope instead.
class RECOIL_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mu) RECOIL_ACQUIRE(mu) : mu_(mu) {
        mu_.lock();
    }
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;
    ~MutexLock() RECOIL_RELEASE() { mu_.unlock(); }

private:
    Mutex& mu_;
};

/// Scoped exclusive lock over util::SharedMutex.
class RECOIL_SCOPED_CAPABILITY WriterMutexLock {
public:
    explicit WriterMutexLock(SharedMutex& mu) RECOIL_ACQUIRE(mu) : mu_(mu) {
        mu_.lock();
    }
    WriterMutexLock(const WriterMutexLock&) = delete;
    WriterMutexLock& operator=(const WriterMutexLock&) = delete;
    ~WriterMutexLock() RECOIL_RELEASE() { mu_.unlock(); }

private:
    SharedMutex& mu_;
};

/// Scoped shared (reader) lock over util::SharedMutex.
class RECOIL_SCOPED_CAPABILITY ReaderMutexLock {
public:
    explicit ReaderMutexLock(SharedMutex& mu) RECOIL_ACQUIRE_SHARED(mu)
        : mu_(mu) {
        mu_.lock_shared();
    }
    ReaderMutexLock(const ReaderMutexLock&) = delete;
    ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
    ~ReaderMutexLock() RECOIL_RELEASE_GENERIC() { mu_.unlock_shared(); }

private:
    SharedMutex& mu_;
};

/// Condition variable waiting on util::Mutex. wait() requires (and is
/// annotated to require) the mutex held; it adopts the caller's lock around
/// the underlying std::condition_variable wait and hands it back on return,
/// so TSA sees an unbroken critical section while the OS sees the normal
/// mutex/condvar protocol. Predicates stay at the call site as explicit
/// `while (!cond) cv.wait(mu);` loops — TSA does not propagate lock state
/// into predicate lambdas, and the explicit loop is the documented
/// convention (docs/static_analysis.md).
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void wait(Mutex& mu) RECOIL_REQUIRES(mu) {
        std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
        cv_.wait(lk);
        lk.release();  // the caller still holds mu, as annotated
    }

    template <class Rep, class Period>
    std::cv_status wait_for(Mutex& mu,
                            const std::chrono::duration<Rep, Period>& dur)
        RECOIL_REQUIRES(mu) {
        std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
        const auto st = cv_.wait_for(lk, dur);
        lk.release();
        return st;
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace recoil::util
