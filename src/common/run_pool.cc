#include "common/run_pool.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/check.hh"

namespace morph
{

std::uint64_t
sweepSeed(std::string_view key, std::uint64_t base)
{
    // FNV-1a 64-bit over the key bytes...
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= std::uint64_t(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    // ...then a splitmix64 finalizer so near-identical keys ("mcf/sc64"
    // vs "mcf/sc128") land in unrelated parts of the seed space.
    h ^= base + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

unsigned
RunPool::hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

RunPool::RunPool(unsigned threads)
{
    const unsigned count = threads == 0 ? hardwareJobs() : threads;
    counters_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        counters_.push_back(std::make_unique<WorkerCounters>());
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this, i]() { workerLoop(i); });
    profToken_ = profRegisterPool([this]() { return telemetry(); });
}

RunPool::~RunPool()
{
    {
        LockGuard guard(lock_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    // After the join: the snapshot morphprof takes here reads final,
    // settled counters.
    profUnregisterPool(profToken_);
}

std::vector<ProfWorkerStats>
RunPool::telemetry() const
{
    std::vector<ProfWorkerStats> stats(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const WorkerCounters &c = *counters_[i];
        stats[i].worker = unsigned(i);
        stats[i].tasks = c.tasks.load(std::memory_order_relaxed);
        stats[i].idleNs = c.idleNs.load(std::memory_order_relaxed);
    }
    return stats;
}

void
RunPool::finishTask(std::size_t task, std::exception_ptr error)
{
    if (error && (!error_ || task < firstErrorIndex_)) {
        error_ = error;
        firstErrorIndex_ = task;
    }
    MORPH_CHECK(pending_ > 0);
    if (--pending_ == 0)
        idle_.notify_all();
}

void
RunPool::workerLoop(unsigned id)
{
    profSetThreadName("worker" + std::to_string(id));
    WorkerCounters &mine = *counters_[id];
    while (true) {
        std::size_t task;
        const std::function<void(std::size_t)> *fn;
        {
            UniqueLock guard(lock_);
            // Idle time is metered only under morphprof: two clock
            // reads per claim are not worth paying on every run.
            const bool meterIdle = profEnabled();
            const std::uint64_t idleStart =
                meterIdle ? profNowNs() : 0;
            // Explicit wait loop (not the predicate overload) so both
            // checkers see the guarded reads inside the held region.
            while (!shutdown_ && next_ == count_)
                wake_.wait(guard);
            if (meterIdle) {
                mine.idleNs.fetch_add(profNowNs() - idleStart,
                                      std::memory_order_relaxed);
            }
            if (shutdown_)
                return;
            // Claim the task and its session's function together:
            // forEach cannot start the next session until this task
            // is finished, so fn stays valid while it runs.
            task = next_++ * stride_ % count_;
            fn = fn_;
        }
        mine.tasks.fetch_add(1, std::memory_order_relaxed);
        std::exception_ptr error;
        try {
            MORPH_PROF_SCOPE("pool.task");
            (*fn)(task);
        } catch (...) {
            error = std::current_exception();
        }
        LockGuard guard(lock_);
        finishTask(task, error);
    }
}

void
RunPool::forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;

    UniqueLock guard(lock_);
    MORPH_CHECK(fn_ == nullptr); // not reentrant
    fn_ = &fn;
    next_ = 0;
    count_ = count;
    // The c-th claim takes index c * stride_ % count: stride_ is about
    // count / threads and coprime to count, so every index is claimed
    // exactly once and the cells running side by side come from
    // distant parts of the job list. Neighbouring cells (in the figure
    // grids, one workload under each tree) would otherwise run together
    // and stack their memory: claimed in order, the Fig 15 grid on 3
    // workers of a 4-vCPU VM peaked at 20-25 MB resident, not 16 MB.
    stride_ = (count + threads() - 1) / threads();
    while (std::gcd(stride_, count) != 1)
        ++stride_;
    pending_ = count;
    error_ = nullptr;
    firstErrorIndex_ = 0;
    wake_.notify_all();
    while (pending_ != 0)
        idle_.wait(guard);
    fn_ = nullptr;
    if (error_) {
        const std::exception_ptr error = error_;
        error_ = nullptr;
        guard.unlock();
        std::rethrow_exception(error);
    }
}

std::string
SweepEngine::utilization() const
{
    const std::vector<ProfWorkerStats> stats = pool_.telemetry();
    std::uint64_t tasks = 0, idle = 0;
    std::uint64_t lo = ~std::uint64_t(0), hi = 0;
    for (const ProfWorkerStats &ws : stats) {
        tasks += ws.tasks;
        idle += ws.idleNs;
        lo = std::min(lo, ws.tasks);
        hi = std::max(hi, ws.tasks);
    }
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "jobs %zu: %llu tasks (min %llu / max %llu per "
                  "worker), idle %.1f ms total",
                  stats.size(),
                  static_cast<unsigned long long>(tasks),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  double(idle) / 1e6);
    return std::string(buf);
}

} // namespace morph
