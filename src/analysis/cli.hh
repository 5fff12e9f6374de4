/**
 * @file
 * The command-line front end shared by the batch analyzers (morphflow and
 * morphrace): flag parsing, compile-database and header discovery,
 * display paths and exclusions, lex-cache pre-warm, text and JSON
 * output, and the exit-code contract (0 clean, 1 unwaived findings,
 * 2 usage or I/O error). A tool supplies only its name, its usage
 * paragraph and its analysis entry point.
 */

#ifndef MORPH_ANALYSIS_CLI_HH
#define MORPH_ANALYSIS_CLI_HH

#include <vector>

#include "analysis/findings.hh"
#include "analysis/lex_cache.hh"

namespace morph::analysis
{

/** What sets one analyzer binary apart. */
struct AnalyzerTool
{
    /** Binary name: prefixes messages, fills the JSON "tool" field. */
    const char *name;
    /** Usage paragraph printed after the synopsis. */
    const char *about;
    /** Analyze one batch of sources. */
    AnalysisResult (*analyze)(const std::vector<SourceText> &sources,
                              LexCache *cache);
};

/**
 * The whole main() of an analyzer binary. Inputs are the translation
 * units of a CMake compile_commands.json (--compile-db) plus every
 * header under <root>/{src,tools,bench}, or explicit file arguments,
 * which get every rule family regardless of path. Returns the exit
 * code.
 */
int runAnalyzer(const AnalyzerTool &tool, int argc, char **argv);

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_CLI_HH
