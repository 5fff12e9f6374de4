/**
 * @file
 * Capability-annotated locking primitives.
 *
 * libstdc++'s std::mutex carries no thread-safety attributes, so a
 * member declared MORPH_GUARDED_BY(some_std_mutex) makes clang's
 * -Wthread-safety warn about the annotation itself instead of
 * checking it. morph::Mutex is a thin wrapper that IS a clang
 * capability; LockGuard/UniqueLock are the matching scoped holders.
 *
 * Nothing in the tree nests locks (docs/CONCURRENCY.md rule 3), and
 * morph::Mutex checks that at run time: each thread counts the
 * morph::Mutexes it holds, and lock() or try_lock() while the count
 * is nonzero fails a MORPH_CHECK. That catches a second lock taken
 * under a first one wherever the two acquisitions sit — in one
 * function or across calls — and a mutex re-locked by its owner. A
 * lock is taken at most once per pool task claim or finish, Zipf
 * table lookup and profiler registration, so the count costs nothing
 * measurable.
 *
 * UniqueLock deliberately supports only the protocol RunPool needs:
 * construct-locked, wait on a condition_variable_any, unlock early.
 * No deferred/adopt tags, no timed waits — add them when a caller
 * exists.
 */

#ifndef MORPH_COMMON_MUTEX_HH
#define MORPH_COMMON_MUTEX_HH

#include <mutex>

#include "common/annotations.hh"
#include "common/check.hh"

namespace morph
{

namespace mutex_detail
{
/** How many morph::Mutexes the calling thread holds: 0 or 1. */
inline thread_local unsigned heldByThisThread = 0;
} // namespace mutex_detail

/** Annotated exclusive mutex (wraps std::mutex) that refuses to be
 *  taken while its thread holds any morph::Mutex. */
class MORPH_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() MORPH_ACQUIRE()
    {
        MORPH_CHECK(mutex_detail::heldByThisThread == 0);
        impl_.lock();
        ++mutex_detail::heldByThisThread;
    }

    void
    unlock() MORPH_RELEASE()
    {
        --mutex_detail::heldByThisThread;
        impl_.unlock();
    }

    /** Checked before the attempt, so a thread re-trying a mutex it
     *  holds (undefined for std::mutex) panics instead. */
    bool
    try_lock() MORPH_TRY_ACQUIRE(true)
    {
        MORPH_CHECK(mutex_detail::heldByThisThread == 0);
        if (!impl_.try_lock())
            return false;
        ++mutex_detail::heldByThisThread;
        return true;
    }

  private:
    std::mutex impl_;
};

/** Scoped lock: held from construction to end of scope. */
class MORPH_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) MORPH_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~LockGuard() MORPH_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/** Scoped lock that a condition variable can release and re-acquire,
 *  and that the owner may unlock before scope exit. Satisfies the
 *  BasicLockable requirements of std::condition_variable_any. */
class MORPH_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) MORPH_ACQUIRE(mu)
        : mu_(mu), held_(true)
    {
        mu_.lock();
    }
    ~UniqueLock() MORPH_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void
    lock() MORPH_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

    void
    unlock() MORPH_RELEASE()
    {
        held_ = false;
        mu_.unlock();
    }

  private:
    Mutex &mu_;
    bool held_;
};

} // namespace morph

#endif // MORPH_COMMON_MUTEX_HH
