/**
 * @file
 * Token-stream cache for morphflow's batch analysis.
 *
 * LexCache memoizes LexedSource by a caller-chosen key — the
 * canonical file path — so a file lexes exactly once per process no
 * matter how many analyses (or duplicate batch entries: a fixture
 * named twice, a header reached by both the compile-db walk and an
 * explicit argument) consume it. morphflow pre-warms one before the
 * analysis so its lex and analyze times are reported apart. Entries
 * live in a std::map, so references returned by get() stay valid for
 * the cache's lifetime.
 */

#ifndef MORPH_ANALYSIS_LEX_CACHE_HH
#define MORPH_ANALYSIS_LEX_CACHE_HH

#include <cstddef>
#include <map>
#include <string>

#include "analysis/lexer.hh"

namespace morph::analysis
{

/** Canonical-path-keyed memo of lexed token streams. */
class LexCache
{
  public:
    /** The lexed form of @p text, lexing at most once per @p key.
     *  @p path is the display path recorded in the tokens (used only
     *  on a miss — hits keep the first spelling). */
    const LexedSource &get(const std::string &key,
                           const std::string &path,
                           const std::string &text);

    std::size_t hits() const { return hits_; }
    std::size_t entries() const { return cache_.size(); }

  private:
    std::map<std::string, LexedSource> cache_;
    std::size_t hits_ = 0;
};

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_LEX_CACHE_HH
