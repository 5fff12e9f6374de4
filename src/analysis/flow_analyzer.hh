/**
 * @file
 * Interprocedural secret-flow, determinism and worker-isolation
 * analysis for morphflow.
 *
 * The analyzer consumes a batch of source files, builds the per-file
 * structural model (source_model.hh), and runs a name-based taint
 * fixed point across the whole batch: MORPH_SECRET annotations seed
 * taint; assignments, calls, and returns propagate it; functions that
 * `return MORPH_DECLASSIFY(...)` are declassification boundaries whose
 * call sites yield public values.
 *
 * Rule families (IDs are what waiver comments name):
 *  - secret-branch     secret value in a branch/loop/ternary condition
 *  - secret-subscript  secret value used as an array subscript
 *  - secret-log        secret value passed to a logging/printf call
 *  - secret-wipe       annotated local leaves scope without a wipe
 *  - secret-member-wipe annotated member/global with no wipe anywhere
 *  - nondet-call       rand()/time()/std::random_device and friends
 *  - nondet-iter       range-for over an unordered container
 *  - race-worker-escape non-atomic, unlocked mutation of captured
 *                       outer state inside a RunPool / SweepEngine
 *                       worker lambda
 *  - race-naked-static  mutable static (or namespace-scope) variable
 *                       with no MORPH_GUARDED_BY / MORPH_SHARD_LOCAL /
 *                       MORPH_MAIN_THREAD annotation
 *
 * The determinism family only runs on files whose `determinismScope`
 * flag is set (src/sim, src/secmem, bench/, tools/), and
 * race-naked-static only on files whose `staticScope` flag is set
 * (src/common, src/sim, src/secmem); any file named explicitly on the
 * morphflow command line gets both. Clang's -Wthread-safety checks
 * the GUARDED_BY / REQUIRES / EXCLUDES contracts themselves
 * (docs/CONCURRENCY.md).
 */

#ifndef MORPH_ANALYSIS_FLOW_ANALYZER_HH
#define MORPH_ANALYSIS_FLOW_ANALYZER_HH

#include <vector>

#include "analysis/findings.hh"

namespace morph::analysis
{

/** Analyze @p sources as one batch (taint propagates across files). */
AnalysisResult analyzeSources(const std::vector<SourceText> &sources);

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_FLOW_ANALYZER_HH
