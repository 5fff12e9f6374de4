/**
 * @file
 * Unit tests for the annotated locking primitives (common/mutex): the
 * lock-nesting check that makes docs/CONCURRENCY.md rule 3 ("nothing
 * nests locks") fail loudly at run time, and the UniqueLock protocol a
 * condition_variable_any drives through it.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>

#include "common/mutex.hh"

namespace morph
{
namespace
{

// The nesting below is the bug under test; keep clang's analysis from
// rejecting it at compile time so the run-time check gets to see it.

void
lockTwoMutexes() MORPH_NO_THREAD_SAFETY_ANALYSIS
{
    Mutex outer;
    Mutex inner;
    outer.lock();
    inner.lock();
}

void
tryLockOneMutexTwice() MORPH_NO_THREAD_SAFETY_ANALYSIS
{
    Mutex mu;
    if (mu.try_lock())
        mu.try_lock();
}

TEST(MutexDeathTest, NestedAcquisitionPanics)
{
    EXPECT_DEATH(lockTwoMutexes(), "heldByThisThread == 0");
    EXPECT_DEATH(tryLockOneMutexTwice(), "heldByThisThread == 0");
}

TEST(Mutex, SequentialAndFailedAcquisitionsLeaveNothingHeld)
{
    Mutex a;
    Mutex b;
    { LockGuard guard(a); }
    { LockGuard guard(b); }
    EXPECT_EQ(mutex_detail::heldByThisThread, 0u);

    // A try_lock that loses to another thread counts nothing, so that
    // thread may go on to take a different mutex.
    LockGuard held(a);
    bool lost = false;
    std::thread other([&] {
        if (a.try_lock())
            a.unlock();
        else
            lost = true;
        LockGuard guard(b);
    });
    other.join();
    EXPECT_TRUE(lost);
}

TEST(Mutex, UniqueLockRelocksAfterConditionWait)
{
    Mutex mu;
    std::condition_variable_any cv;
    bool ready = false;
    std::thread notifier;
    {
        UniqueLock lock(mu);
        // The notifier can take mu only once the wait releases it, so
        // the wait's unlock / re-lock path is what this test runs.
        notifier = std::thread([&] {
            LockGuard guard(mu);
            ready = true;
            cv.notify_one();
        });
        while (!ready)
            cv.wait(lock);
        // Re-locked by the wait, and counted once.
        EXPECT_EQ(mutex_detail::heldByThisThread, 1u);
    }
    notifier.join();
    EXPECT_EQ(mutex_detail::heldByThisThread, 0u);
    // Nothing is left counted: another mutex locks cleanly.
    Mutex other;
    LockGuard guard(other);
}

} // namespace
} // namespace morph
