/**
 * @file
 * run_pool: the parallel sweep engine for independent simulation runs.
 *
 * Every evaluation surface of this repo — the morphbench workload x
 * config matrix, the bench/paper figure driver, morphsim
 * --sweep, morphverify's model shards — is an embarrassingly parallel
 * grid of independent runs: each run owns its whole simulated system
 * (traces, RNGs, caches, DRAM, StatRegistry/MorphScope), and shares
 * no mutable state with its siblings. RunPool turns that grid into
 * near-linear multi-core throughput without giving up the repo's
 * bit-reproducibility contract:
 *
 *  - Determinism by construction. A task is addressed by its index in
 *    the caller's job list; results land in an index-ordered vector,
 *    so collected output is byte-identical no matter how the pool
 *    schedules the work. Seeds must be derived from the run key (use
 *    sweepSeed(), or an explicit per-run SimOptions::seed), never
 *    from pool scheduling order, thread ids, or time.
 *
 *  - One shared cursor. Workers claim one index at a time, in a
 *    fixed order that interleaves distant parts of the job list (see
 *    forEach in run_pool.cc), so a few slow cells (random-access workloads run ~3x
 *    longer than streaming ones) hold up only the worker running
 *    them: the others keep claiming cells. A sweep cell runs for
 *    tenths of a second, so one lock round trip per claim costs
 *    nothing measurable.
 *
 *  - Exceptions propagate. The first failure *by task index* (again:
 *    not by completion order) is rethrown from forEach() after the
 *    session drains, so a failing sweep reports the same cell on
 *    every machine.
 *
 * The pool is not reentrant: one forEach() session at a time, driven
 * from one thread. Tasks must not call back into the same pool.
 *
 * Locking discipline (checked by -Wthread-safety under clang and by
 * morph::Mutex's lock-nesting check at run time — see
 * docs/CONCURRENCY.md): all session state, the cursor included, is
 * guarded by the one lock_, and no other lock is ever taken while it
 * is held.
 */

#ifndef MORPH_COMMON_RUN_POOL_HH
#define MORPH_COMMON_RUN_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "common/prof.hh"

namespace morph
{

/** Deterministic per-run seed derived from the run's identity.
 *
 *  FNV-1a over @p key mixed through a splitmix64 finalizer and XORed
 *  with @p base — a pure function of (key, base), so a sweep assigns
 *  every (workload, config) run the same RNG stream regardless of
 *  which worker executes it, in which order, at which --jobs level.
 *  Never seed a run from scheduling state (thread id, completion
 *  rank, time): that is exactly the nondeterminism this pool exists
 *  to exclude. */
std::uint64_t sweepSeed(std::string_view key, std::uint64_t base = 0);

/** Thread pool over index-addressed task ranges. */
class RunPool
{
  public:
    /** @param threads worker count; 0 = hardwareJobs(). */
    explicit RunPool(unsigned threads = 0);
    ~RunPool();

    RunPool(const RunPool &) = delete;
    RunPool &operator=(const RunPool &) = delete;

    /** Worker threads in this pool (>= 1). */
    unsigned threads() const { return unsigned(workers_.size()); }

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareJobs();

    /**
     * Execute fn(0) .. fn(count-1) across the workers and block until
     * every call returns. Tasks run concurrently and in no defined
     * order; anything order-dependent must key off the index, not off
     * execution sequence. If any call throws, the exception of the
     * lowest-indexed failing task is rethrown here after the session
     * completes. Not reentrant.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn)
        MORPH_EXCLUDES(lock_);

    /**
     * Per-worker telemetry snapshot (tasks run, idle wall time).
     * Counters are relaxed atomics — tasks count always; idle time
     * accrues only while morphprof is enabled (a clock read per claim
     * is not free). Snapshot between sessions for exact sums; the
     * pool also publishes this through morphprof's pool registration,
     * so every profile report carries it.
     */
    std::vector<ProfWorkerStats> telemetry() const;

  private:
    /** One worker's telemetry counters (relaxed atomics: each is
     *  written by its owning worker and read by snapshots; no
     *  ordering is implied between counters). */
    struct WorkerCounters
    {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> idleNs{0};
    };

    void workerLoop(unsigned id) MORPH_EXCLUDES(lock_);
    /** Record completion (and optional failure) of @p task. */
    void finishTask(std::size_t task, std::exception_ptr error)
        MORPH_REQUIRES(lock_);

    // unique_ptr: a vector of atomics is not movable, and the heap
    // slot gives each worker's counters a stable address for life.
    std::vector<std::unique_ptr<WorkerCounters>> counters_;
    std::vector<std::thread> workers_;
    std::size_t profToken_ = 0; ///< morphprof pool registration

    Mutex lock_; ///< guards the session state below
    std::condition_variable_any wake_; ///< workers: tasks to claim
    std::condition_variable_any idle_; ///< forEach: the session drained
    const std::function<void(std::size_t)> *fn_
        MORPH_GUARDED_BY(lock_) = nullptr;
    std::size_t next_ MORPH_GUARDED_BY(lock_) = 0;   ///< claims made
    std::size_t count_ MORPH_GUARDED_BY(lock_) = 0;  ///< session size
    std::size_t stride_ MORPH_GUARDED_BY(lock_) = 1; ///< claim order
    std::size_t pending_ MORPH_GUARDED_BY(lock_) = 0;
    std::size_t firstErrorIndex_ MORPH_GUARDED_BY(lock_) = 0;
    std::exception_ptr error_ MORPH_GUARDED_BY(lock_);
    bool shutdown_ MORPH_GUARDED_BY(lock_) = false;
};

/**
 * Ordered parallel map over an index range: the sweep engine proper.
 *
 * Wraps a RunPool and collects one result per job into a vector
 * ordered by job index, so downstream aggregation and report emission
 * read results exactly as a serial loop would have produced them:
 *
 *   SweepEngine engine(jobs);
 *   auto results = engine.map<SimResult>(cells.size(), [&](size_t i) {
 *       return simulate(cells[i]);
 *   });
 *   // results[i] corresponds to cells[i]; print in order.
 */
class SweepEngine
{
  public:
    /** @param jobs worker count; 0 = RunPool::hardwareJobs(). */
    explicit SweepEngine(unsigned jobs = 0) : pool_(jobs) {}

    unsigned jobs() const { return pool_.threads(); }
    RunPool &pool() { return pool_; }

    /**
     * One-line worker utilization summary from the pool's telemetry
     * ("jobs 4: 128 tasks (min 28 / max 36 per worker), idle ...")
     * for driver stderr reporting. Call between map() sessions.
     */
    std::string utilization() const;

    /** Run fn(i) for i in [0, count) and return results in index
     *  order. Result must be default-constructible. */
    template <typename Result, typename Fn>
    std::vector<Result>
    map(std::size_t count, Fn &&fn)
    {
        std::vector<Result> results(count);
        const std::function<void(std::size_t)> task =
            [&](std::size_t i) { results[i] = fn(i); };
        pool_.forEach(count, task);
        return results;
    }

  private:
    RunPool pool_;
};

} // namespace morph

#endif // MORPH_COMMON_RUN_POOL_HH
