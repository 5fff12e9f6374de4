/**
 * @file
 * Per-file structural model for the morphflow analyzer: function
 * definitions with their parameter lists and body token ranges;
 * class/struct definitions (including nested ones) with their
 * data-member declarations; and the declaration scans the rules need
 * (MORPH_SECRET-annotated names, names declared with
 * unordered-container types, and the GUARDED_BY / SHARD_LOCAL /
 * MAIN_THREAD annotations and storage class of members and statics
 * that race-worker-escape and race-naked-static read).
 *
 * Function extraction is a brace/paren matcher, not a parser: a
 * definition is an identifier (or `operator` followed by its symbol)
 * and a balanced parenthesis group, optional qualifiers (`const`,
 * `noexcept`, trailing return, MORPH_* annotation groups, constructor
 * member-init list), and a balanced brace body. Code the matcher
 * cannot shape (macro-generated bodies, say) is simply not analyzed
 * for secret flow — the determinism rules run on the raw token stream
 * and are unaffected.
 */

#ifndef MORPH_ANALYSIS_SOURCE_MODEL_HH
#define MORPH_ANALYSIS_SOURCE_MODEL_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.hh"

namespace morph::analysis
{

/** One parameter of a function definition. */
struct Param
{
    std::string name;
    bool secret = false; ///< declared with MORPH_SECRET
};

/** One MORPH_* annotation attached to a declaration. */
struct Annotation
{
    std::string macro; ///< e.g. "MORPH_GUARDED_BY"
};

/** One function definition found in a source file. */
struct FunctionDef
{
    std::string name;            ///< unqualified name (last component)
    bool secretReturn = false;   ///< MORPH_SECRET in the return type
    std::vector<Param> params;
    std::size_t headerBegin = 0; ///< token index of the name
    std::size_t bodyBegin = 0;   ///< token index of the opening '{'
    std::size_t bodyEnd = 0;     ///< token index of the closing '}'
    unsigned line = 0;           ///< line of the name token
};

/** One class/struct definition (including nested ones). */
struct ClassDef
{
    std::string name;        ///< qualified by outer classes
    std::size_t bodyBegin = 0; ///< token index of the opening '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
    unsigned line = 0;
};

/** A data-member or namespace-scope variable declaration. Class
 *  members are always modelled; file-scope variables only when they
 *  are static / thread_local or carry a MORPH_* annotation (the cases
 *  the concurrency rules care about). */
struct VarDecl
{
    std::string klass;    ///< enclosing class, "" at file scope
    std::string name;
    std::string typeText; ///< identifier tokens left of the name
    unsigned line = 0;
    bool isStatic = false;
    bool isConst = false;       ///< const/constexpr value
    bool isThreadLocal = false;
    std::vector<Annotation> annotations;
};

/** A declaration outside any function body carrying MORPH_SECRET. */
struct SecretDecl
{
    std::string name;
    std::string typeText; ///< tokens between MORPH_SECRET and the name
    unsigned line = 0;
};

/** The structural model of one lexed file. */
struct SourceModel
{
    const LexedSource *src = nullptr;
    std::vector<FunctionDef> functions;
    std::vector<ClassDef> classes;       ///< incl. nested, in order
    std::vector<VarDecl> varDecls;       ///< members + flagged globals
    std::vector<SecretDecl> secretDecls; ///< members/globals/statics
    /** Names declared (anywhere in the file) with a type mentioning
     *  std::unordered_map / std::unordered_set. */
    std::set<std::string> unorderedNames;
    /** Functions whose declaration (no body) carries MORPH_SECRET on
     *  the return type — how headers mark secret-returning APIs. */
    std::set<std::string> secretReturnDecls;
    /** Rules waived for the whole file via `allow-file(<rule>)`. */
    std::set<std::string> fileWaivers;
    /** MORPH_SECRET on a parameter of a function *declaration* (no
     *  body): function name -> zero-based secret parameter indices.
     *  Definitions carry the annotation in their own Param list. */
    std::map<std::string, std::set<std::size_t>> secretParamDecls;

    /** True if @p line (or the line above) carries a
     *  `morphflow: allow(<rule>)` waiver, or the file carries
     *  `morphflow: allow-file(<rule>)`. */
    bool waived(const std::string &rule, unsigned line) const;
};

/** Build the structural model for @p src. */
SourceModel buildModel(const LexedSource &src);

/** Find the index of the Punct matching the opener at @p open
 *  ('(' / '{' / '['); returns tokens.size() if unbalanced. */
std::size_t matchGroup(const std::vector<Token> &tokens,
                       std::size_t open);

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_SOURCE_MODEL_HH
