/**
 * @file
 * morphrace — concurrency-contract static analyzer.
 *
 * morphrace enforces the locking discipline declared with the MORPH_*
 * concurrency annotations (common/annotations.hh) across the whole
 * repository as one batch:
 *
 *   1. Guarded state. Members and globals annotated
 *      MORPH_GUARDED_BY(mu) may only be touched while `mu` is held
 *      (an in-scope RAII guard or explicit lock()); functions
 *      annotated MORPH_REQUIRES(mu) may only be called with `mu`
 *      held, MORPH_EXCLUDES(mu) only without it.
 *
 *   2. Lock order. The batch-wide mutex acquisition graph (taken
 *      while holding) must stay acyclic; re-acquiring a held mutex is
 *      flagged at the site.
 *
 *   3. Worker isolation. Lambdas handed to RunPool::forEach (or any
 *      pool- or engine-named receiver) must not mutate captured state
 *      except through index-addressed stores, locks they take
 *      themselves, atomics, or MORPH_SHARD_LOCAL state.
 *
 *   4. Static hygiene. Mutable statics and namespace-scope variables
 *      in src/{common,sim,secmem} must carry a concurrency
 *      annotation, be const, thread_local, or atomic.
 *
 * Inputs: the translation units listed in a CMake
 * compile_commands.json plus every header under <root>/{src,tools,
 * bench}, or explicit file arguments (which get every rule family
 * regardless of path — this is how the WILL_FAIL fixtures run). The
 * flags, inputs and outputs are the shared analysis/cli.hh ones.
 *
 * Waivers: `// morphrace: allow(<rule>): reason` on the finding line
 * or the line above; `// morphrace: allow-file(<rule>): reason`
 * anywhere in the file. Waived findings are reported separately and
 * never fail the run.
 *
 * Exit status: 0 clean, 1 unwaived findings, 2 usage or I/O error.
 */

#include "analysis/cli.hh"
#include "analysis/race_analyzer.hh"

int
main(int argc, char **argv)
{
    const morph::analysis::AnalyzerTool tool = {
        "morphrace",
        "Analyze the translation units of a compile database (plus\n"
        "headers under <root>/{src,tools,bench}) for violations of\n"
        "the annotated locking discipline, or analyze explicit files\n"
        "with every rule family enabled.\n",
        morph::analysis::analyzeRaces,
    };
    return morph::analysis::runAnalyzer(tool, argc, argv);
}
