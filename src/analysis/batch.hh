/**
 * @file
 * The half of a batch analyzer that morphflow's and morphrace's
 * engines share: every source of the batch is lexed (once, through
 * the caller's LexCache or a private one) and modeled up front, and
 * findings are collected with one semantics — a repeated (file, line,
 * rule, symbol) is dropped, waiver comments split waived findings from
 * unwaived ones, and the result is sorted by file, line, rule and
 * symbol.
 */

#ifndef MORPH_ANALYSIS_BATCH_HH
#define MORPH_ANALYSIS_BATCH_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/findings.hh"
#include "analysis/lex_cache.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{

/** One analyzed file: raw text metadata, token stream, model. */
struct FileUnit
{
    SourceText meta;
    const LexedSource *lexed = nullptr;
    SourceModel model;
};

/** Base of a batch analyzer: its units and its finding collector. */
class BatchAnalyzer
{
  public:
    /** Lex and model @p sources; a null @p cache uses a private one,
     *  which also de-duplicates same-path batch entries. */
    BatchAnalyzer(const std::vector<SourceText> &sources,
                  LexCache *cache);

  protected:
    /** Record a finding, unless this exact one was already recorded. */
    void report(const FileUnit &unit, const std::string &rule,
                unsigned line, const std::string &symbol,
                const std::string &message);

    /** The sorted result; call once, after every rule has run. */
    AnalysisResult takeResult();

  private:
    // Declared first: units_ point into its entries.
    LexCache ownLex_;

  protected:
    std::vector<FileUnit> units_;

  private:
    std::set<std::string> reported_;
    AnalysisResult result_;
};

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_BATCH_HH
