/**
 * @file
 * Source-contract annotations consumed by the morphflow static
 * analyzer and, for the concurrency vocabulary, by clang's native
 * -Wthread-safety analysis.
 *
 * Under GCC every macro expands to nothing; the annotations exist so
 * that morphflow (src/analysis) can see, in the token stream, which
 * declarations carry secret material, which state is guarded or
 * shard-local, and where the sanctioned declassification points are.
 * Under clang the concurrency macros expand to the thread-safety
 * attributes, and clang TSA (AST-level, per-TU, run in the clang CI
 * lane) checks the guarded-state contracts.
 *
 * Secret-flow vocabulary (morphflow):
 *
 *  - `MORPH_SECRET` on a declaration (parameter, local, member,
 *    global, or function return type) marks the declared value as
 *    secret. Taint propagates from annotated names through
 *    assignments, calls, and returns; a secret reaching a branch
 *    condition, an array subscript, a variadic/logging call, or the
 *    end of its scope without a wipe is a finding.
 *
 *  - `MORPH_DECLASSIFY(expr)` marks `expr` as deliberately
 *    declassified: the value is derived from secrets but is safe to
 *    branch on (e.g. the boolean result of a constant-time MAC
 *    comparison). A function whose return value is wrapped in
 *    MORPH_DECLASSIFY is a *declassifier*: its call sites are treated
 *    as public values and its argument expressions are not scanned as
 *    part of an enclosing branch condition.
 *
 * Concurrency vocabulary (clang TSA and morphflow; see
 * docs/CONCURRENCY.md):
 *
 *  - `MORPH_CAPABILITY(name)` on a class declares it a lockable
 *    capability (morph::Mutex in common/mutex.hh is the one in-tree).
 *  - `MORPH_GUARDED_BY(mu)` on a member or global: every access must
 *    happen inside a region holding `mu`.
 *  - `MORPH_REQUIRES(mu)` on a function: callers must already hold
 *    `mu`.
 *  - `MORPH_EXCLUDES(mu)` on a function: callers must NOT hold `mu` —
 *    the function acquires it itself.
 *  - `MORPH_ACQUIRE(mu)` / `MORPH_RELEASE(mu)` /
 *    `MORPH_TRY_ACQUIRE(ok, mu)` on lock-wrapper methods.
 *  - `MORPH_SCOPED_CAPABILITY` on RAII guard classes.
 *  - `MORPH_SHARD_LOCAL` on state owned by exactly one sweep shard /
 *    pool worker at a time (per-run StatRegistry, TraceLog,
 *    PadAuditor...): lock-free by ownership, not by luck. morphflow
 *    exempts it from race-worker-escape and race-naked-static.
 *  - `MORPH_MAIN_THREAD` on setup-only state mutated exclusively
 *    before worker threads exist (or after they drain); concurrent
 *    readers of the frozen value are fine.
 *
 * Waivers (for findings that are understood and accepted):
 *
 *  - `// morphflow: allow(<rule>): <reason>` on the same line as the
 *    finding, or on the line directly above it, waives that rule for
 *    that line.
 *  - `allow-file(<rule>): <reason>` anywhere in a file waives the
 *    rule for the whole file (used for the table-based AES S-box
 *    lookups, which are index-secret by construction).
 *
 * Rules (see tools/morphflow.cc):
 *   secret-branch, secret-subscript, secret-log, secret-wipe,
 *   secret-member-wipe, nondet-call, nondet-iter,
 *   race-worker-escape, race-naked-static.
 */

#ifndef MORPH_COMMON_ANNOTATIONS_HH
#define MORPH_COMMON_ANNOTATIONS_HH

/** Marks the annotated declaration as carrying secret material. */
#define MORPH_SECRET

/** Marks @p expr as deliberately declassified (safe to branch on). */
#define MORPH_DECLASSIFY(expr) (expr)

// Concurrency annotations. Clang's -Wthread-safety checks them at
// compile time; GCC compiles them away. Keep the two expansions in
// lockstep with docs/CONCURRENCY.md.
#if defined(__clang__) && !defined(MORPH_NO_THREAD_SAFETY_ATTRIBUTES)
#define MORPH_TSA_(x) __attribute__((x))
#else
#define MORPH_TSA_(x)
#endif

/** Declares the annotated class a lockable capability. */
#define MORPH_CAPABILITY(name) MORPH_TSA_(capability(name))

/** Declares the annotated RAII class a scoped lock holder. */
#define MORPH_SCOPED_CAPABILITY MORPH_TSA_(scoped_lockable)

/** The annotated member/global may only be accessed holding @p mu. */
#define MORPH_GUARDED_BY(mu) MORPH_TSA_(guarded_by(mu))

/** Callers of the annotated function must already hold the mutex. */
#define MORPH_REQUIRES(...) MORPH_TSA_(requires_capability(__VA_ARGS__))

/** Callers of the annotated function must NOT hold the mutex. */
#define MORPH_EXCLUDES(...) MORPH_TSA_(locks_excluded(__VA_ARGS__))

/** The annotated function acquires the mutex and returns holding it. */
#define MORPH_ACQUIRE(...) MORPH_TSA_(acquire_capability(__VA_ARGS__))

/** The annotated function releases the mutex. */
#define MORPH_RELEASE(...) MORPH_TSA_(release_capability(__VA_ARGS__))

/** The annotated function acquires the mutex iff it returns @p ok. */
#define MORPH_TRY_ACQUIRE(...) \
    MORPH_TSA_(try_acquire_capability(__VA_ARGS__))

/** Opt a function out of clang's analysis (trusted implementation). */
#define MORPH_NO_THREAD_SAFETY_ANALYSIS \
    MORPH_TSA_(no_thread_safety_analysis)

/** State owned by exactly one sweep shard / pool worker at a time:
 *  lock-free by ownership. morphflow-only; clang has no equivalent. */
#define MORPH_SHARD_LOCAL

/** Setup-only state: mutated exclusively while no worker threads run;
 *  frozen-value readers may be concurrent. morphflow-only. */
#define MORPH_MAIN_THREAD

#endif // MORPH_COMMON_ANNOTATIONS_HH
