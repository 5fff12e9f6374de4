/**
 * @file
 * Input/output types of morphflow's batch analysis (src/analysis):
 * one input file, one finding, one batch result.
 */

#ifndef MORPH_ANALYSIS_FINDINGS_HH
#define MORPH_ANALYSIS_FINDINGS_HH

#include <string>
#include <vector>

namespace morph::analysis
{

/** One input file for an analysis batch. */
struct SourceText
{
    std::string path;
    std::string text;
    /** morphflow: apply the nondet-call / nondet-iter rules here. */
    bool determinismScope = false;
    /** morphflow: apply the race-naked-static rule here
     *  (src/{common,sim,secmem} and explicit file arguments). */
    bool staticScope = false;
};

/** One rule violation (or waived violation). */
struct Finding
{
    std::string rule;    ///< rule ID, e.g. "secret-branch"
    std::string file;
    std::string symbol;  ///< offending identifier, may be empty
    std::string message; ///< human-readable description
    unsigned line = 0;
    bool waived = false;
};

/** The outcome of analyzing a batch of sources. */
struct AnalysisResult
{
    std::vector<Finding> findings; ///< unwaived — these fail the run
    std::vector<Finding> waived;   ///< suppressed by allow() comments
};

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_FINDINGS_HH
