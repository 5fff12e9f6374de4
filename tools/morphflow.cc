/**
 * @file
 * morphflow — secret-flow and determinism static analyzer.
 *
 * morphflow enforces two source-level contracts that neither the type
 * system nor the test suite can see:
 *
 *   1. Secret flow. Key and pad material annotated with MORPH_SECRET
 *      (common/annotations.hh) must never influence a branch
 *      condition, an array subscript, or a logging call, and must be
 *      wiped before leaving scope — unless an explicit
 *      MORPH_DECLASSIFY boundary or a waiver comment says otherwise.
 *      The one known exception, the table-based AES S-box, is a
 *      waived, documented finding rather than silence.
 *
 *   2. Determinism. Simulation results must be a pure function of the
 *      configuration: rand()/time()/std::random_device and range-for
 *      iteration over unordered containers are banned in src/sim,
 *      src/secmem, bench/ and tools/.
 *
 * Inputs: the translation units listed in a CMake
 * compile_commands.json plus every header under <root>/{src,tools,
 * bench}, or explicit file arguments (which get every rule family
 * regardless of path — this is how the WILL_FAIL fixtures run). The
 * flags, inputs and outputs are the shared analysis/cli.hh ones.
 *
 * Waivers: `// morphflow: allow(<rule>): reason` on the finding line
 * or the line above; `// morphflow: allow-file(<rule>): reason`
 * anywhere in the file. Waived findings are reported separately and
 * never fail the run.
 *
 * Exit status: 0 clean, 1 unwaived findings, 2 usage or I/O error.
 */

#include "analysis/cli.hh"
#include "analysis/flow_analyzer.hh"

int
main(int argc, char **argv)
{
    const morph::analysis::AnalyzerTool tool = {
        "morphflow",
        "Analyze the translation units of a compile database (plus\n"
        "headers under <root>/{src,tools,bench}) for secret-flow and\n"
        "determinism violations, or analyze explicit files with every\n"
        "rule family enabled.\n",
        morph::analysis::analyzeSources,
    };
    return morph::analysis::runAnalyzer(tool, argc, argv);
}
