/**
 * @file
 * morphprof: the simulator's self-profiling layer.
 *
 * morphscope (stat_registry.hh) observes the *simulated* machine;
 * morphprof observes the *simulator*. Code marks phases with RAII
 * scopes:
 *
 *   void SimSystem::run(std::uint64_t accesses_per_core) {
 *       MORPH_PROF_SCOPE("sim.run");
 *       ...
 *   }
 *
 * Each macro site creates one immutable ProfSite (registered once,
 * process-wide) and times every dynamic entry into a per-thread call
 * tree: nested scopes become child nodes, recursion becomes same-site
 * chains, and every node accumulates a call count and inclusive
 * wall-clock nanoseconds. Thread-local trees are merged at report
 * time, keyed by thread name, with exclusive time derived as
 * inclusive minus the children's inclusive.
 *
 * The layer is always compiled and off by default. A disabled scope
 * still costs its site's guard check, a relaxed atomic load, a branch
 * and a register-save frame in its function, so no scope sits on the
 * per-access path: the timed step decides once per SimSystem::run()
 * whether it records its scopes (docs/OBSERVABILITY.md). Profiling
 * never feeds back into simulation state, so outputs with profiling
 * off are byte-identical to outputs with profiling on (pinned by the
 * morphsim_prof_noninterference tier-1 test).
 *
 * Scope names follow the morphscope naming contract — [a-z0-9_.]+ and
 * unique per site (enforced at registration). Keep MORPH_PROF_SCOPE
 * out of headers and inline functions: a site duplicated across
 * translation units registers its name twice and panics.
 *
 * Lifecycle: profEnable() starts the wall-clock window, profReport()
 * merges and freezes (further enables are refused, later scope entries
 * are invisible). Call profReport() only when instrumented work is
 * quiesced — after pools drain, never mid-run. RunPool instances
 * self-register so every report also carries per-worker telemetry
 * (tasks run, idle ns).
 *
 * Exporters: morphprof JSON (the morphprof CLI's input), collapsed
 * stacks (flamegraph.pl and speedscope both open them), and a text
 * tree for stderr summaries. See docs/OBSERVABILITY.md, "Profiling
 * the simulator itself".
 */

#ifndef MORPH_COMMON_PROF_HH
#define MORPH_COMMON_PROF_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/stat_registry.hh"

namespace morph
{

/** True if @p name satisfies the scope-name contract [a-z0-9_.]+. */
bool isValidProfName(const std::string &name);

struct ProfNode;

/**
 * One static instrumentation site. Construct through
 * MORPH_PROF_SCOPE only: the constructor validates the name and
 * registers the site process-wide (panics on a contract violation or
 * a duplicate name).
 */
class ProfSite
{
  public:
    explicit ProfSite(const char *name);

    ProfSite(const ProfSite &) = delete;
    ProfSite &operator=(const ProfSite &) = delete;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

// Hot-path hooks behind the enabled check (implemented in prof.cc).
ProfNode *profEnter(const ProfSite &site);
void profLeave(ProfNode *node, std::uint64_t elapsed_ns);
std::uint64_t profNowNs();

/** Global on/off latch; relaxed reads on the scope fast path. */
extern std::atomic<bool> profEnabledFlag;

inline bool
profEnabled()
{
    return profEnabledFlag.load(std::memory_order_relaxed);
}

/** RAII phase timer; inert while profiling is off or after the
 *  profile is frozen. */
class ProfScope
{
  public:
    explicit ProfScope(const ProfSite &site)
        : node_(profEnabled() ? profEnter(site) : nullptr),
          startNs_(node_ != nullptr ? profNowNs() : 0)
    {}

    ~ProfScope()
    {
        if (node_ != nullptr)
            profLeave(node_, profNowNs() - startNs_);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfNode *node_;
    std::uint64_t startNs_;
};

#define MORPH_PROF_CONCAT2(a, b) a##b
#define MORPH_PROF_CONCAT(a, b) MORPH_PROF_CONCAT2(a, b)

/**
 * Time the enclosing block as profiler phase @p name.
 * One site per source line; use only in .cc files (see file header).
 */
#define MORPH_PROF_SCOPE(name)                                          \
    static const ::morph::ProfSite MORPH_PROF_CONCAT(                   \
        morphProfSite_, __LINE__){name};                                \
    const ::morph::ProfScope MORPH_PROF_CONCAT(morphProfScope_,         \
                                               __LINE__)(               \
        MORPH_PROF_CONCAT(morphProfSite_, __LINE__))

/** Start profiling (opens the wall-clock window). Refused after a
 *  report froze the profile. */
void profEnable();

/** Name the calling thread in reports ("main", "worker3", ...). */
void profSetThreadName(const std::string &name);

/** Per-worker RunPool telemetry as it appears in a profile. */
struct ProfWorkerStats
{
    std::string pool;              ///< registration-order label
    unsigned worker = 0;           ///< worker index within the pool
    std::uint64_t tasks = 0;       ///< tasks executed
    std::uint64_t idleNs = 0;      ///< wall ns blocked awaiting work
};

/** Snapshot callback a pool registers; called only while quiesced. */
using ProfPoolSnapshotFn = std::function<std::vector<ProfWorkerStats>()>;

/** Register a live pool's telemetry source; returns an unregister
 *  token. The pool label ("pool0", ...) is assigned here. */
std::size_t profRegisterPool(const ProfPoolSnapshotFn &snapshot);

/** Unregister a pool; its final telemetry is retained in the profile
 *  when profiling is (or was) enabled. */
void profUnregisterPool(std::size_t token);

/** One merged scope in a report (pre-order within its thread). */
struct ProfEntry
{
    std::string thread;          ///< owning thread name
    std::string path;            ///< ";"-joined stack, root-first
    std::string name;            ///< leaf scope name
    unsigned depth = 0;          ///< 0 = top-level scope
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t exclusiveNs = 0; ///< inclusive minus children
};

/** A merged, frozen profile. */
struct ProfReport
{
    std::uint64_t wallNs = 0;           ///< enable -> report window
    std::vector<std::string> threads;   ///< "main" first, then sorted
    std::vector<ProfEntry> entries;     ///< grouped by thread
    std::vector<ProfWorkerStats> workers; ///< all pools, in label order
    RunMeta meta;                       ///< driver-set context

    /** Sum of top-level inclusive ns on thread @p thread. */
    std::uint64_t rootInclusiveNs(const std::string &thread) const;

    /** Main-thread root inclusive over the wall window (0 when the
     *  window is empty); the acceptance gate wants this near 1. */
    double coverage() const;

    /** Write the morphprof-v1 JSON document (the CLI's input). */
    void writeJson(std::ostream &os) const;

    /** Collapsed stacks ("thread;a;b <exclusive_ns>") for
     *  flamegraph.pl. */
    void writeCollapsed(std::ostream &os) const;

    /** Indented text tree + worker table (stderr summaries). */
    void dumpText(std::ostream &os) const;
};

/** Merge every thread's tree and freeze the profiler (see file
 *  header for the quiescence requirement). */
ProfReport profReport();

/** Tests/lint only: drop accumulated data and unfreeze. Callers must
 *  be quiesced (every thread's scope stack empty). */
void profResetForTest();

/** Tests only: replace the clock (nullptr restores steady_clock). */
void profSetClockForTest(std::uint64_t (*now_ns)());

/**
 * Driver plumbing for the MORPH_PROF environment variable: when
 * @p prof_out is empty and MORPH_PROF is set non-empty and not "0",
 * a value of "1" or "stderr" requests a stderr summary only
 * (@p stderr_summary) and any other value is taken as the --prof-out
 * path. An explicit --prof-out always wins.
 */
void profApplyEnv(std::string &prof_out, bool &stderr_summary);

/**
 * End-of-run plumbing for the tools' profiled runs. With a non-empty
 * @p base, write the two export files: the morphprof JSON at @p base
 * and collapsed stacks at "<base>.collapsed". With @p stderr_summary,
 * print the text summary on stderr. On a write failure, print
 * "<tool>: cannot write <path>" and return false.
 */
bool profExport(const ProfReport &report, const std::string &base,
                bool stderr_summary, const char *tool);

} // namespace morph

#endif // MORPH_COMMON_PROF_HH
