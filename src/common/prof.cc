#include "common/prof.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/check.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/mutex.hh"

namespace morph
{

std::atomic<bool> profEnabledFlag{false};

/** One node of a thread's call tree. Children are found by site
 *  pointer with a linear scan: instrumented functions have a handful
 *  of distinct callees, so the scan beats any map. */
struct ProfNode
{
    const ProfSite *site = nullptr; ///< nullptr only at the root
    ProfNode *parent = nullptr;
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::vector<std::unique_ptr<ProfNode>> children;
};

namespace
{

struct ThreadState
{
    std::string name;
    ProfNode root;
    ProfNode *current = &root;
};

struct PoolEntry
{
    std::size_t token = 0;
    std::string label;
    ProfPoolSnapshotFn snapshot;
};

struct Registry
{
    Mutex lock;
    // Thread states are created once per thread and never destroyed:
    // the owning thread keeps a raw pointer in TLS, so the list only
    // grows (bounded by the process's lifetime thread count).
    std::vector<std::unique_ptr<ThreadState>> threadStates
        MORPH_GUARDED_BY(lock);
    std::vector<const ProfSite *> sites MORPH_GUARDED_BY(lock);
    std::vector<PoolEntry> poolEntries MORPH_GUARDED_BY(lock);
    std::vector<ProfWorkerStats> retired MORPH_GUARDED_BY(lock);
    bool frozen MORPH_GUARDED_BY(lock) = false;
    std::uint64_t startNs MORPH_GUARDED_BY(lock) = 0;
    std::uint64_t windowNs MORPH_GUARDED_BY(lock) = 0;
    std::size_t nextPoolToken MORPH_GUARDED_BY(lock) = 0;
    std::size_t poolCount MORPH_GUARDED_BY(lock) = 0;
};

Registry &
registry()
{
    // C++11 guarantees race-free one-time construction; every
    // mutable member is guarded by the contained lock (annotated).
    // morphflow: allow(race-naked-static): guarded members, see above
    static Registry reg;
    return reg;
}

thread_local ThreadState *tlsThread = nullptr;

std::atomic<std::uint64_t (*)()> clockOverride{nullptr};

ThreadState *
initThread()
{
    auto owned = std::make_unique<ThreadState>();
    ThreadState *state = owned.get();
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    state->name = reg.threadStates.empty()
                      ? std::string("main")
                      : "thread" + std::to_string(reg.threadStates.size());
    reg.threadStates.push_back(std::move(owned));
    tlsThread = state;
    return state;
}

} // namespace

bool
isValidProfName(const std::string &name)
{
    // Same contract as morphscope stat names: [a-z0-9_.]+.
    return isValidStatName(name);
}

ProfSite::ProfSite(const char *name) : name_(name)
{
    if (!isValidProfName(name_))
        panic("prof scope name '%s' violates the [a-z0-9_.]+ contract",
              name_.c_str());
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    for (const ProfSite *site : reg.sites) {
        if (site->name() == name_)
            panic("duplicate prof scope name '%s'", name_.c_str());
    }
    reg.sites.push_back(this);
}

std::uint64_t
profNowNs()
{
    const auto override = clockOverride.load(std::memory_order_relaxed);
    if (override != nullptr)
        return override();
    const auto now = std::chrono::steady_clock::now();
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

ProfNode *
profEnter(const ProfSite &site)
{
    ThreadState *state = tlsThread != nullptr ? tlsThread : initThread();
    ProfNode *parent = state->current;
    ProfNode *node = nullptr;
    for (const auto &child : parent->children) {
        if (child->site == &site) {
            node = child.get();
            break;
        }
    }
    if (node == nullptr) {
        parent->children.push_back(std::make_unique<ProfNode>());
        node = parent->children.back().get();
        node->site = &site;
        node->parent = parent;
    }
    state->current = node;
    return node;
}

void
profLeave(ProfNode *node, std::uint64_t elapsed_ns)
{
    node->calls += 1;
    node->inclusiveNs += elapsed_ns;
    tlsThread->current = node->parent;
}

void
profEnable()
{
    // Register the calling thread before any worker can: the first
    // registered thread is the one reports name "main".
    if (tlsThread == nullptr)
        initThread();
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    if (reg.frozen)
        return;
    if (!profEnabledFlag.load(std::memory_order_relaxed)) {
        reg.startNs = profNowNs();
        profEnabledFlag.store(true, std::memory_order_relaxed);
    }
}

void
profSetThreadName(const std::string &name)
{
    ThreadState *state = tlsThread != nullptr ? tlsThread : initThread();
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    state->name = name;
}

std::size_t
profRegisterPool(const ProfPoolSnapshotFn &snapshot)
{
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    PoolEntry entry;
    entry.token = reg.nextPoolToken++;
    entry.label = "pool" + std::to_string(reg.poolCount++);
    entry.snapshot = snapshot;
    reg.poolEntries.push_back(std::move(entry));
    return reg.poolEntries.back().token;
}

void
profUnregisterPool(std::size_t token)
{
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    for (auto it = reg.poolEntries.begin();
         it != reg.poolEntries.end(); ++it) {
        if (it->token != token)
            continue;
        // Keep the final telemetry only if a profile window is (or
        // was) open; otherwise nobody will ever report it.
        if (profEnabledFlag.load(std::memory_order_relaxed) ||
            reg.frozen) {
            std::vector<ProfWorkerStats> stats = it->snapshot();
            for (ProfWorkerStats &ws : stats) {
                ws.pool = it->label;
                reg.retired.push_back(std::move(ws));
            }
        }
        reg.poolEntries.erase(it);
        return;
    }
}

namespace
{

/** Cross-thread merge node (threads with equal names fold together). */
struct MergedNode
{
    const ProfSite *site = nullptr;
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::vector<std::unique_ptr<MergedNode>> children;
};

void
mergeTree(MergedNode &dst, const ProfNode &src)
{
    dst.calls += src.calls;
    dst.inclusiveNs += src.inclusiveNs;
    for (const auto &child : src.children) {
        MergedNode *slot = nullptr;
        for (const auto &existing : dst.children) {
            if (existing->site == child->site) {
                slot = existing.get();
                break;
            }
        }
        if (slot == nullptr) {
            dst.children.push_back(std::make_unique<MergedNode>());
            slot = dst.children.back().get();
            slot->site = child->site;
        }
        mergeTree(*slot, *child);
    }
}

void
emitEntries(const MergedNode &node, const std::string &thread,
            const std::string &parent_path, unsigned depth,
            std::vector<ProfEntry> &out)
{
    std::vector<const MergedNode *> ordered;
    ordered.reserve(node.children.size());
    for (const auto &child : node.children)
        ordered.push_back(child.get());
    std::sort(ordered.begin(), ordered.end(),
              [](const MergedNode *a, const MergedNode *b) {
                  return a->site->name() < b->site->name();
              });
    for (const MergedNode *child : ordered) {
        std::uint64_t childSum = 0;
        for (const auto &grand : child->children)
            childSum += grand->inclusiveNs;
        ProfEntry entry;
        entry.thread = thread;
        entry.name = child->site->name();
        entry.path = parent_path.empty()
                         ? entry.name
                         : parent_path + ";" + entry.name;
        entry.depth = depth;
        entry.calls = child->calls;
        entry.inclusiveNs = child->inclusiveNs;
        entry.exclusiveNs = child->inclusiveNs > childSum
                                ? child->inclusiveNs - childSum
                                : 0;
        out.push_back(entry);
        // Pass the local copy: pushing into `out` during the recursion
        // can reallocate and would dangle a reference into the vector.
        emitEntries(*child, thread, entry.path, depth + 1, out);
    }
}

} // namespace

ProfReport
profReport()
{
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    if (!reg.frozen) {
        if (profEnabledFlag.load(std::memory_order_relaxed))
            reg.windowNs = profNowNs() - reg.startNs;
        profEnabledFlag.store(false, std::memory_order_relaxed);
        reg.frozen = true;
    }

    ProfReport report;
    report.wallNs = reg.windowNs;

    // Fold threads with the same display name (every pool names its
    // workers worker0..workerN-1) and order "main" first.
    std::vector<std::pair<std::string, MergedNode>> merged;
    for (const auto &state : reg.threadStates) {
        if (state->root.children.empty())
            continue;
        MergedNode *slot = nullptr;
        for (auto &kv : merged) {
            if (kv.first == state->name) {
                slot = &kv.second;
                break;
            }
        }
        if (slot == nullptr) {
            merged.emplace_back(state->name, MergedNode{});
            slot = &merged.back().second;
        }
        mergeTree(*slot, state->root);
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto &a, const auto &b) {
                  const bool amain = a.first == "main";
                  const bool bmain = b.first == "main";
                  if (amain != bmain)
                      return amain;
                  return a.first < b.first;
              });
    for (const auto &kv : merged) {
        report.threads.push_back(kv.first);
        emitEntries(kv.second, kv.first, "", 0, report.entries);
    }

    for (const PoolEntry &pool : reg.poolEntries) {
        std::vector<ProfWorkerStats> stats = pool.snapshot();
        for (ProfWorkerStats &ws : stats) {
            ws.pool = pool.label;
            report.workers.push_back(std::move(ws));
        }
    }
    for (const ProfWorkerStats &ws : reg.retired)
        report.workers.push_back(ws);
    std::sort(report.workers.begin(), report.workers.end(),
              [](const ProfWorkerStats &a, const ProfWorkerStats &b) {
                  if (a.pool.size() != b.pool.size())
                      return a.pool.size() < b.pool.size();
                  if (a.pool != b.pool)
                      return a.pool < b.pool;
                  return a.worker < b.worker;
              });
    return report;
}

void
profResetForTest()
{
    Registry &reg = registry();
    LockGuard guard(reg.lock);
    profEnabledFlag.store(false, std::memory_order_relaxed);
    reg.frozen = false;
    reg.startNs = 0;
    reg.windowNs = 0;
    reg.retired.clear();
    for (auto &state : reg.threadStates) {
        // Reset requires quiescence: no thread may be inside a scope.
        MORPH_CHECK(state->current == &state->root);
        state->root.children.clear();
        state->root.calls = 0;
        state->root.inclusiveNs = 0;
    }
}

void
profSetClockForTest(std::uint64_t (*now_ns)())
{
    clockOverride.store(now_ns, std::memory_order_relaxed);
}

std::uint64_t
ProfReport::rootInclusiveNs(const std::string &thread) const
{
    std::uint64_t total = 0;
    for (const ProfEntry &entry : entries) {
        if (entry.thread == thread && entry.depth == 0)
            total += entry.inclusiveNs;
    }
    return total;
}

double
ProfReport::coverage() const
{
    if (wallNs == 0 || threads.empty())
        return 0.0;
    return double(rootInclusiveNs(threads.front())) / double(wallNs);
}

void
ProfReport::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"morphprof-v1\",\n  \"meta\": {";
    bool first = true;
    for (const auto &kv : meta.entries) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << jsonEscape(kv.first) << "\": \""
           << jsonEscape(kv.second) << "\"";
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"wall_ns\": " << wallNs << ",\n";
    os << "  \"coverage\": " << jsonNumber(coverage()) << ",\n";
    os << "  \"threads\": [";
    bool firstThread = true;
    for (const std::string &thread : threads) {
        if (!firstThread)
            os << ",";
        firstThread = false;
        os << "\n    {\"name\": \"" << jsonEscape(thread)
           << "\", \"root_inclusive_ns\": " << rootInclusiveNs(thread)
           << ", \"scopes\": [";
        bool firstScope = true;
        for (const ProfEntry &entry : entries) {
            if (entry.thread != thread)
                continue;
            if (!firstScope)
                os << ",";
            firstScope = false;
            os << "\n      {\"path\": \"" << jsonEscape(entry.path)
               << "\", \"name\": \"" << jsonEscape(entry.name)
               << "\", \"depth\": " << entry.depth
               << ", \"calls\": " << entry.calls
               << ", \"inclusive_ns\": " << entry.inclusiveNs
               << ", \"exclusive_ns\": " << entry.exclusiveNs << "}";
        }
        os << (firstScope ? "" : "\n    ") << "]}";
    }
    os << (firstThread ? "" : "\n  ") << "],\n";
    os << "  \"pools\": [";
    bool firstPool = true;
    std::string current;
    for (const ProfWorkerStats &ws : workers) {
        if (ws.pool != current) {
            if (!current.empty())
                os << "\n    ]}";
            if (!firstPool)
                os << ",";
            firstPool = false;
            current = ws.pool;
            os << "\n    {\"pool\": \"" << jsonEscape(ws.pool)
               << "\", \"workers\": [";
        } else {
            os << ",";
        }
        os << "\n      {\"worker\": " << ws.worker
           << ", \"tasks\": " << ws.tasks
           << ", \"idle_ns\": " << ws.idleNs << "}";
    }
    if (!current.empty())
        os << "\n    ]}";
    os << (firstPool ? "" : "\n  ") << "]\n}\n";
}

void
ProfReport::writeCollapsed(std::ostream &os) const
{
    for (const ProfEntry &entry : entries) {
        if (entry.exclusiveNs == 0)
            continue;
        os << entry.thread << ";" << entry.path << " "
           << entry.exclusiveNs << "\n";
    }
}

void
ProfReport::dumpText(std::ostream &os) const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "morphprof: wall %.3f ms, coverage %.1f%%\n",
                  double(wallNs) / 1e6, coverage() * 100.0);
    os << buf;
    for (const std::string &thread : threads) {
        const std::uint64_t root = rootInclusiveNs(thread);
        std::snprintf(buf, sizeof buf,
                      "thread %s (root %.3f ms)\n", thread.c_str(),
                      double(root) / 1e6);
        os << buf;
        std::snprintf(buf, sizeof buf, "  %-40s %10s %12s %12s %7s\n",
                      "scope", "calls", "incl_ms", "excl_ms", "incl%");
        os << buf;
        for (const ProfEntry &entry : entries) {
            if (entry.thread != thread)
                continue;
            std::string label(std::size_t(entry.depth) * 2, ' ');
            label += entry.name;
            const double pct =
                root == 0 ? 0.0
                          : 100.0 * double(entry.inclusiveNs) /
                                double(root);
            std::snprintf(buf, sizeof buf,
                          "  %-40s %10llu %12.3f %12.3f %6.1f%%\n",
                          label.c_str(),
                          static_cast<unsigned long long>(entry.calls),
                          double(entry.inclusiveNs) / 1e6,
                          double(entry.exclusiveNs) / 1e6, pct);
            os << buf;
        }
    }
    std::string current;
    std::uint64_t tasks = 0;
    unsigned count = 0;
    auto flush = [&]() {
        if (current.empty())
            return;
        std::snprintf(buf, sizeof buf,
                      "pool %s: %u workers, %llu tasks\n",
                      current.c_str(), count,
                      static_cast<unsigned long long>(tasks));
        os << buf;
    };
    for (const ProfWorkerStats &ws : workers) {
        if (ws.pool != current) {
            flush();
            current = ws.pool;
            tasks = 0;
            count = 0;
        }
        ++count;
        tasks += ws.tasks;
        std::snprintf(buf, sizeof buf,
                      "  %s worker %u: tasks %llu, idle %.3f ms\n",
                      ws.pool.c_str(), ws.worker,
                      static_cast<unsigned long long>(ws.tasks),
                      double(ws.idleNs) / 1e6);
        os << buf;
    }
    flush();
}

void
profApplyEnv(std::string &prof_out, bool &stderr_summary)
{
    if (!prof_out.empty())
        return;
    const char *env = std::getenv("MORPH_PROF");
    if (env == nullptr || *env == '\0')
        return;
    const std::string value(env);
    if (value == "0")
        return;
    if (value == "1" || value == "stderr")
        stderr_summary = true;
    else
        prof_out = value;
}

bool
profExport(const ProfReport &report, const std::string &base,
           bool stderr_summary, const char *tool)
{
    struct Sink
    {
        std::string path;
        void (ProfReport::*writer)(std::ostream &) const;
    };
    const Sink sinks[] = {
        {base, &ProfReport::writeJson},
        {base + ".collapsed", &ProfReport::writeCollapsed},
    };
    for (const Sink &sink : sinks) {
        if (base.empty())
            break; // no files requested
        std::ofstream out(sink.path);
        if (out) {
            (report.*sink.writer)(out);
            out.flush();
        }
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", tool,
                         sink.path.c_str());
            return false;
        }
    }
    if (stderr_summary) {
        std::ostringstream text;
        report.dumpText(text);
        std::fputs(text.str().c_str(), stderr);
    }
    return true;
}

} // namespace morph
