#include "analysis/flow_analyzer.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

const char secretMarker[] = "MORPH_SECRET";
const char declassifyMarker[] = "MORPH_DECLASSIFY";

bool
isControlKeyword(const std::string &s)
{
    static const char *const kw[] = {
        "if",     "for",    "while",  "switch",        "catch",
        "return", "sizeof", "alignof", "static_assert", "assert",
        "new",    "delete", "throw",
    };
    return std::any_of(std::begin(kw), std::end(kw),
                       [&](const char *k) { return s == k; });
}

bool
isLogFunction(const std::string &s)
{
    static const char *const fns[] = {
        "printf", "fprintf", "sprintf",   "snprintf", "vprintf",
        "vfprintf", "vsnprintf", "puts",  "fputs",    "syslog",
        "inform", "warn",    "panic",     "fatal",
    };
    return std::any_of(std::begin(fns), std::end(fns),
                       [&](const char *k) { return s == k; });
}

bool
isBannedNondet(const std::string &s)
{
    static const char *const fns[] = {
        "rand",     "srand",        "random",       "drand48",
        "lrand48",  "mrand48",      "rand_r",       "time",
        "clock",    "gettimeofday", "clock_gettime", "localtime",
        "gmtime",
    };
    return std::any_of(std::begin(fns), std::end(fns),
                       [&](const char *k) { return s == k; });
}

bool
isAssignOp(const std::string &s)
{
    static const char *const ops[] = {
        "=",  "+=", "-=",  "*=",  "/=", "%=",
        "&=", "|=", "^=", "<<=", ">>=",
    };
    return std::any_of(std::begin(ops), std::end(ops),
                       [&](const char *k) { return s == k; });
}

/** Member accesses on a secret object that yield public values:
 *  sizes and emptiness do not reveal secret contents. Note that
 *  .data() is NOT here — reading through the pointer it returns is
 *  exactly how secret bytes flow onward. */
bool
isPublicMember(const std::string &s)
{
    static const char *const members[] = {
        "size", "empty", "capacity", "locked",
    };
    return std::any_of(std::begin(members), std::end(members),
                       [&](const char *k) { return s == k; });
}

/** True if typeText names a self-wiping container. */
bool
selfWipingType(const std::string &type_text)
{
    return type_text.find("SecureBuf") != std::string::npos ||
           type_text.find("SecretArray") != std::string::npos;
}

/** An explicitly annotated local, tracked for the wipe rule. */
struct AnnotatedLocal
{
    std::string name;
    std::string typeText;
    unsigned line = 0;
};

/** Per-function taint state. */
struct LocalState
{
    std::set<std::string> secrets;
    std::vector<AnnotatedLocal> locals;
};

/** A mutex key held at some brace depth inside a worker lambda. */
struct HeldLock
{
    std::string key;
    int depth = 0;
};

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

bool
mentionsAtomic(const std::string &typeText)
{
    return typeText.find("atomic") != std::string::npos;
}

bool
mentionsMutex(const std::string &typeText)
{
    return typeText.find("Mutex") != std::string::npos ||
           typeText.find("mutex") != std::string::npos;
}

/** RAII guard types whose construction acquires its mutex argument. */
const std::set<std::string> raiiGuards = {
    "lock_guard", "scoped_lock", "unique_lock",
    "shared_lock", "LockGuard",  "UniqueLock",
};

/** Index just past a `<...>` template-argument group starting at
 *  @p open, or @p open itself if the angles never close. */
std::size_t
skipAngleGroup(const std::vector<Token> &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].kind != Tok::Punct)
            continue;
        if (t[i].text == "<")
            ++depth;
        else if (t[i].text == ">")
            --depth;
        else if (t[i].text == ">>")
            depth -= 2;
        else if (t[i].text == ";" || t[i].text == "{")
            return open;
        if (depth <= 0)
            return i + 1;
    }
    return open;
}

/** One analyzed file: raw text metadata, token stream, model. */
struct FileUnit
{
    SourceText meta;
    /** Heap-held: model points into it, and units_ may move. */
    std::unique_ptr<const LexedSource> lexed;
    SourceModel model;
};

class Analyzer
{
  public:
    /** Lex and model @p sources. */
    explicit Analyzer(const std::vector<SourceText> &sources)
    {
        units_.reserve(sources.size());
        for (const SourceText &src : sources) {
            FileUnit unit;
            unit.meta = src;
            unit.lexed =
                std::make_unique<const LexedSource>(lex(src.path, src.text));
            unit.model = buildModel(*unit.lexed);
            units_.push_back(std::move(unit));
        }
    }

    AnalysisResult
    run()
    {
        seed();
        propagate();
        for (const FileUnit &unit : units_) {
            secretRules(unit);
            memberWipeRule(unit);
            if (unit.meta.determinismScope)
                determinismRules(unit);
            workerEscapeRule(unit);
            if (unit.meta.staticScope)
                nakedStaticRule(unit);
        }
        return takeResult();
    }

  private:
    // ---- seeding -----------------------------------------------------

    void
    seed()
    {
        declassifiers_.insert(declassifyMarker);
        // Wiping consumes a secret; passing one to secureWipe is the
        // required disposal, not a leak, and must not taint its params.
        declassifiers_.insert("secureWipe");
        // Which files define each function name. Names defined in more
        // than one file (two file-local helpers both called `rotl`, say)
        // get file-qualified taint keys so taint cannot jump between
        // unrelated same-named functions.
        for (const FileUnit &unit : units_)
            for (const FunctionDef &f : unit.model.functions)
                defFiles_[f.name].insert(unit.meta.path);
        for (const FileUnit &unit : units_) {
            const SourceModel &m = unit.model;
            for (const SecretDecl &d : m.secretDecls)
                globalSecretNames_.insert(d.name);
            for (const std::string &n : m.unorderedNames)
                unorderedAll_.insert(n);
            // Header annotations apply to every definition of the name.
            for (const std::string &fn : m.secretReturnDecls)
                for (const std::string &key : keysForName(fn))
                    secretReturnFns_.insert(key);
            for (const auto &entry : m.secretParamDecls)
                for (const std::string &key : keysForName(entry.first))
                    secretParams_[key].insert(entry.second.begin(),
                                              entry.second.end());
            for (const FunctionDef &f : m.functions) {
                definedFns_.insert(f.name);
                if (f.secretReturn)
                    secretReturnFns_.insert(defKey(unit, f.name));
                for (std::size_t i = 0; i < f.params.size(); ++i)
                    if (f.params[i].secret)
                        secretParams_[defKey(unit, f.name)].insert(i);
            }
        }
        // Declassifier discovery is syntactic, so do it up front: a
        // function becomes a declassification boundary the moment its
        // source says `return MORPH_DECLASSIFY(...)`, regardless of the
        // order files are visited during taint propagation.
        for (const FileUnit &unit : units_) {
            const auto &t = unit.lexed->tokens;
            for (const FunctionDef &f : unit.model.functions)
                for (std::size_t i = f.bodyBegin + 1;
                     i + 1 < f.bodyEnd; ++i)
                    if (t[i].text == "return" &&
                        t[i + 1].text == declassifyMarker)
                        declassifiers_.insert(defKey(unit, f.name));
        }
        // Wipe mentions anywhere in the batch, for the member rule.
        for (const FileUnit &unit : units_) {
            const auto &t = unit.lexed->tokens;
            for (std::size_t i = 0; i + 1 < t.size(); ++i) {
                if (t[i].text == "secureWipe" && t[i + 1].text == "(") {
                    const std::size_t close = matchGroup(t, i + 1);
                    for (std::size_t j = i + 2;
                         j < close && j < t.size(); ++j)
                        if (t[j].kind == Tok::Ident)
                            wipedNames_.insert(t[j].text);
                } else if (t[i].kind == Tok::Ident && i + 2 < t.size() &&
                           (t[i + 1].text == "." ||
                            t[i + 1].text == "->") &&
                           t[i + 2].text == "wipe") {
                    wipedNames_.insert(t[i].text);
                }
            }
        }
        // Names a worker lambda may mutate without a finding, and the
        // mutexes it may lock, batch-wide by name.
        for (const FileUnit &unit : units_) {
            for (const VarDecl &v : unit.model.varDecls) {
                for (const Annotation &a : v.annotations) {
                    if (a.macro == "MORPH_GUARDED_BY" ||
                        a.macro == "MORPH_SHARD_LOCAL")
                        workerSafeNames_.insert(v.name);
                }
                if (mentionsAtomic(v.typeText))
                    workerSafeNames_.insert(v.name);
                if (mentionsMutex(v.typeText))
                    mutexVars_.insert(v.name);
            }
        }
    }

    // ---- taint fixed point -------------------------------------------

    void
    propagate()
    {
        for (int iter = 0; iter < 20; ++iter) {
            bool changed = false;
            for (const FileUnit &unit : units_)
                for (const FunctionDef &fn : unit.model.functions)
                    changed |= propagateFunction(unit, fn);
            if (!changed)
                return;
        }
    }

    bool
    propagateFunction(const FileUnit &unit, const FunctionDef &fn)
    {
        const LocalState state = localState(unit, fn);
        const auto &t = unit.lexed->tokens;
        bool changed = false;
        for (std::size_t i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
            if (t[i].kind != Tok::Ident)
                continue;
            if (t[i].text == "return") {
                if (i + 1 < fn.bodyEnd &&
                    t[i + 1].text == declassifyMarker)
                    continue; // declassified return, seeded up front
                const std::size_t end = statementEnd(t, i + 1, fn.bodyEnd);
                if (findSecretUse(unit, t, i + 1, end, state.secrets) !=
                    npos)
                    changed |= secretReturnFns_
                                   .insert(defKey(unit, fn.name))
                                   .second;
                continue;
            }
            // Call with a secret argument: taint the callee parameter.
            if (i + 1 < fn.bodyEnd && t[i + 1].text == "(" &&
                !isControlKeyword(t[i].text) &&
                definedFns_.count(t[i].text) != 0) {
                const std::string key = callKey(unit, t[i].text);
                if (key.empty() || declassifiers_.count(key) != 0)
                    continue;
                const std::size_t close = matchGroup(t, i + 1);
                std::size_t pos = 0;
                for (const auto &arg : argRanges(t, i + 1, close)) {
                    if (findSecretUse(unit, t, arg.first, arg.second,
                                      state.secrets) != npos)
                        changed |=
                            secretParams_[key].insert(pos).second;
                    ++pos;
                }
            }
        }
        return changed;
    }

    /** Local taint for one function: seeds plus an intra-procedural
     *  assignment fixed point. */
    LocalState
    localState(const FileUnit &unit, const FunctionDef &fn) const
    {
        LocalState state;
        state.secrets = globalSecretNames_;
        const auto pit = secretParams_.find(defKey(unit, fn.name));
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const Param &p = fn.params[i];
            if (p.name.empty())
                continue;
            if (p.secret ||
                (pit != secretParams_.end() && pit->second.count(i)))
                state.secrets.insert(p.name);
        }
        const auto &t = unit.lexed->tokens;
        // Explicitly annotated locals.
        for (std::size_t i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
            if (t[i].text != secretMarker)
                continue;
            std::string type_text;
            std::size_t j = i + 1;
            while (j < fn.bodyEnd) {
                const std::string &s = t[j].text;
                if (s == ";" || s == "=" || s == "{" || s == "(")
                    break;
                if (t[j].kind == Tok::Ident || s == "::" || s == "<" ||
                    s == ">" || s == ">>") {
                    if (!type_text.empty())
                        type_text += ' ';
                    type_text += s;
                }
                ++j;
            }
            AnnotatedLocal local;
            local.name = declName(t, i + 1, j);
            local.typeText = type_text;
            local.line = t[i].line;
            if (!local.name.empty()) {
                state.secrets.insert(local.name);
                state.locals.push_back(std::move(local));
            }
        }
        // Assignment / copy propagation to a fixed point.
        for (int iter = 0; iter < 10; ++iter) {
            bool changed = false;
            for (std::size_t i = fn.bodyBegin + 1; i < fn.bodyEnd;
                 ++i) {
                if (t[i].kind == Tok::Ident && i + 1 < fn.bodyEnd &&
                    isAssignOp(t[i + 1].text) &&
                    state.secrets.count(t[i].text) == 0) {
                    const std::size_t end =
                        statementEnd(t, i + 2, fn.bodyEnd);
                    if (findSecretUse(unit, t, i + 2, end,
                                      state.secrets) != npos) {
                        state.secrets.insert(t[i].text);
                        changed = true;
                    }
                }
                // Subscripted store: `x[i] ^= secret` taints x.
                if (t[i].kind == Tok::Ident && i + 1 < fn.bodyEnd &&
                    t[i + 1].text == "[" &&
                    state.secrets.count(t[i].text) == 0) {
                    const std::size_t close = matchGroup(t, i + 1);
                    if (close + 1 < fn.bodyEnd &&
                        isAssignOp(t[close + 1].text)) {
                        const std::size_t end =
                            statementEnd(t, close + 2, fn.bodyEnd);
                        if (findSecretUse(unit, t, close + 2, end,
                                          state.secrets) != npos) {
                            state.secrets.insert(t[i].text);
                            changed = true;
                        }
                    }
                }
                if (t[i].kind == Tok::Ident &&
                    (t[i].text == "memcpy" || t[i].text == "memmove") &&
                    i + 1 < fn.bodyEnd && t[i + 1].text == "(") {
                    const std::size_t close = matchGroup(t, i + 1);
                    if (findSecretUse(unit, t, i + 2, close,
                                      state.secrets) == npos)
                        continue;
                    for (std::size_t j = i + 2; j < close; ++j) {
                        if (t[j].kind != Tok::Ident)
                            continue;
                        if (state.secrets.insert(t[j].text).second)
                            changed = true;
                        break;
                    }
                }
            }
            if (!changed)
                break;
        }
        return state;
    }

    // ---- shared scanning helpers -------------------------------------

    /** End (exclusive) of the statement starting at @p begin: the
     *  index of the first ';' at bracket depth zero. */
    static std::size_t
    statementEnd(const std::vector<Token> &t, std::size_t begin,
                 std::size_t limit)
    {
        int depth = 0;
        for (std::size_t i = begin; i < limit; ++i) {
            const std::string &s = t[i].text;
            if (s == "(" || s == "[" || s == "{")
                ++depth;
            else if (s == ")" || s == "]" || s == "}")
                --depth;
            else if (s == ";" && depth <= 0)
                return i;
        }
        return limit;
    }

    /** Top-level comma-separated argument ranges of the group opened
     *  at @p open (which closes at @p close). */
    static std::vector<std::pair<std::size_t, std::size_t>>
    argRanges(const std::vector<Token> &t, std::size_t open,
              std::size_t close)
    {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        if (close >= t.size() || close <= open + 1)
            return args;
        std::size_t begin = open + 1;
        int depth = 0;
        for (std::size_t i = begin; i <= close; ++i) {
            const std::string &s = t[i].text;
            const bool at_end = i == close;
            if (!at_end) {
                if (s == "(" || s == "[" || s == "{")
                    ++depth;
                else if (s == ")" || s == "]" || s == "}")
                    --depth;
            }
            if (at_end || (s == "," && depth == 0)) {
                if (i > begin)
                    args.emplace_back(begin, i);
                begin = i + 1;
            }
        }
        return args;
    }

    /** Declared name of a declarator run — thin wrapper over the same
     *  convention source_model uses (last identifier, arrays peeled). */
    static std::string
    declName(const std::vector<Token> &t, std::size_t begin,
             std::size_t end)
    {
        std::size_t last = end;
        while (last > begin) {
            --last;
            if (t[last].kind == Tok::Ident)
                return t[last].text;
            if (t[last].text == "]") {
                unsigned depth = 1;
                while (last > begin && depth > 0) {
                    --last;
                    if (t[last].text == "]")
                        ++depth;
                    else if (t[last].text == "[")
                        --depth;
                }
                continue;
            }
            if (t[last].text == "&" || t[last].text == "*" ||
                t[last].kind == Tok::Number)
                continue;
            break;
        }
        return {};
    }

    /** Interprocedural taint key for the definition of @p name in
     *  @p unit: the plain name when it is defined in at most one file,
     *  file-qualified when several files define it independently. */
    std::string
    defKey(const FileUnit &unit, const std::string &name) const
    {
        const auto it = defFiles_.find(name);
        if (it != defFiles_.end() && it->second.size() > 1)
            return unit.meta.path + "#" + name;
        return name;
    }

    /** Key a call to @p name from @p unit resolves to. For a name
     *  defined in several files, the call binds to the defining file
     *  it appears in; a cross-file call to such a name is ambiguous
     *  and returns "" (no propagation rather than wrong
     *  propagation). */
    std::string
    callKey(const FileUnit &unit, const std::string &name) const
    {
        const auto it = defFiles_.find(name);
        if (it == defFiles_.end() || it->second.size() <= 1)
            return name;
        if (it->second.count(unit.meta.path) != 0)
            return unit.meta.path + "#" + name;
        return {};
    }

    /** Every definition-side key for @p name, for annotations carried
     *  on declarations (a header does not say which file defines the
     *  function, so seed all of them). */
    std::vector<std::string>
    keysForName(const std::string &name) const
    {
        const auto it = defFiles_.find(name);
        if (it == defFiles_.end() || it->second.size() <= 1)
            return {name};
        std::vector<std::string> keys;
        for (const std::string &file : it->second)
            keys.push_back(file + "#" + name);
        return keys;
    }

    /** First secret use in [begin, end): an identifier in @p secrets,
     *  or a call to a secret-returning function. Declassifier call
     *  subtrees and public member accesses (x.size(), x.data()) are
     *  skipped. Returns npos when the range is clean. */
    std::size_t
    findSecretUse(const FileUnit &unit, const std::vector<Token> &t,
                  std::size_t begin, std::size_t end,
                  const std::set<std::string> &secrets) const
    {
        std::size_t i = begin;
        while (i < end && i < t.size()) {
            const Token &tok = t[i];
            if (tok.kind != Tok::Ident) {
                ++i;
                continue;
            }
            std::string call_key;
            if (i + 1 < end && t[i + 1].text == "(")
                call_key = callKey(unit, tok.text);
            if (!call_key.empty() &&
                declassifiers_.count(call_key) != 0) {
                const std::size_t close = matchGroup(t, i + 1);
                i = close >= t.size() ? end : close + 1;
                continue;
            }
            const bool is_secret = secrets.count(tok.text) != 0;
            if (is_secret && i + 2 < end &&
                (t[i + 1].text == "." || t[i + 1].text == "->") &&
                isPublicMember(t[i + 2].text)) {
                i += 3;
                continue;
            }
            if (is_secret)
                return i;
            if (!call_key.empty() &&
                secretReturnFns_.count(call_key) != 0)
                return i;
            ++i;
        }
        return npos;
    }

    // ---- secret rules ------------------------------------------------

    void
    secretRules(const FileUnit &unit)
    {
        for (const FunctionDef &fn : unit.model.functions)
            functionRules(unit, fn);
    }

    void
    functionRules(const FileUnit &unit, const FunctionDef &fn)
    {
        const LocalState state = localState(unit, fn);
        const auto &t = unit.lexed->tokens;
        for (std::size_t i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
            const std::string &s = t[i].text;
            if (t[i].kind == Tok::Ident &&
                (s == "if" || s == "while" || s == "switch") &&
                i + 1 < fn.bodyEnd && t[i + 1].text == "(") {
                checkCondition(unit, fn, state, i + 1,
                               matchGroup(t, i + 1));
                continue;
            }
            if (t[i].kind == Tok::Ident && s == "for" &&
                i + 1 < fn.bodyEnd && t[i + 1].text == "(") {
                checkForLoop(unit, fn, state, i + 1);
                continue;
            }
            if (s == "?" && t[i].kind == Tok::Punct) {
                checkTernary(unit, fn, state, i);
                continue;
            }
            if (s == "[" && t[i].kind == Tok::Punct && i > 0 &&
                (t[i - 1].kind == Tok::Ident || t[i - 1].text == ")" ||
                 t[i - 1].text == "]") &&
                !(i + 1 < fn.bodyEnd && t[i + 1].text == "[")) {
                const std::size_t close = matchGroup(t, i);
                const std::size_t hit = findSecretUse(
                    unit, t, i + 1, std::min(close, fn.bodyEnd),
                    state.secrets);
                if (hit != npos)
                    report(unit, "secret-subscript", t[hit].line,
                           t[hit].text,
                           "secret value '" + t[hit].text +
                               "' used as an array subscript "
                               "(data-dependent memory access)");
                continue;
            }
            if (t[i].kind == Tok::Ident && isLogFunction(s) &&
                i + 1 < fn.bodyEnd && t[i + 1].text == "(") {
                const std::size_t close = matchGroup(t, i + 1);
                const std::size_t hit = findSecretUse(
                    unit, t, i + 2, std::min(close, fn.bodyEnd),
                    state.secrets);
                if (hit != npos)
                    report(unit, "secret-log", t[hit].line,
                           t[hit].text,
                           "secret value '" + t[hit].text +
                               "' passed to logging call '" + s +
                               "'");
            }
        }
        wipeRule(unit, fn, state);
    }

    void
    checkCondition(const FileUnit &unit, const FunctionDef &fn,
                   const LocalState &state, std::size_t open,
                   std::size_t close)
    {
        const auto &t = unit.lexed->tokens;
        const std::size_t hit = findSecretUse(
            unit, t, open + 1, std::min(close, fn.bodyEnd),
            state.secrets);
        if (hit != npos)
            report(unit, "secret-branch", t[hit].line, t[hit].text,
                   "secret value '" + t[hit].text +
                       "' influences a branch condition");
    }

    void
    checkForLoop(const FileUnit &unit, const FunctionDef &fn,
                 const LocalState &state, std::size_t open)
    {
        const auto &t = unit.lexed->tokens;
        const std::size_t close = matchGroup(t, open);
        if (close >= fn.bodyEnd)
            return;
        // Range-for never branches on element values; the unordered
        // iteration hazard is the determinism family's concern.
        std::size_t first_semi = npos;
        int depth = 0;
        for (std::size_t i = open + 1; i < close; ++i) {
            const std::string &s = t[i].text;
            if (s == "(" || s == "[" || s == "{") {
                ++depth;
            } else if (s == ")" || s == "]" || s == "}") {
                --depth;
            } else if (s == ";" && depth == 0) {
                first_semi = i;
                break;
            } else if (s == ":" && depth == 0) {
                return; // range-for
            }
        }
        // Only the condition and increment parts can branch on data;
        // the init part is assignment, handled by taint propagation.
        const std::size_t begin =
            first_semi == npos ? open + 1 : first_semi + 1;
        const std::size_t hit =
            findSecretUse(unit, t, begin, close, state.secrets);
        if (hit != npos)
            report(unit, "secret-branch", t[hit].line, t[hit].text,
                   "secret value '" + t[hit].text +
                       "' influences a loop condition");
    }

    void
    checkTernary(const FileUnit &unit, const FunctionDef &fn,
                 const LocalState &state, std::size_t qpos)
    {
        const auto &t = unit.lexed->tokens;
        std::size_t begin = fn.bodyBegin + 1;
        int depth = 0;
        for (std::size_t i = qpos; i > fn.bodyBegin;) {
            --i;
            const std::string &s = t[i].text;
            if (s == ")" || s == "]" || s == "}") {
                ++depth;
                continue;
            }
            if (s == "(" || s == "[" || s == "{") {
                if (depth == 0) {
                    begin = i + 1;
                    break;
                }
                --depth;
                continue;
            }
            if (depth == 0 &&
                (s == ";" || s == "," || s == "=" || s == "return" ||
                 s == "?" || s == ":")) {
                begin = i + 1;
                break;
            }
        }
        const std::size_t hit =
            findSecretUse(unit, t, begin, qpos, state.secrets);
        if (hit != npos)
            report(unit, "secret-branch", t[hit].line, t[hit].text,
                   "secret value '" + t[hit].text +
                       "' selects a ternary result");
    }

    void
    wipeRule(const FileUnit &unit, const FunctionDef &fn,
             const LocalState &state)
    {
        const auto &t = unit.lexed->tokens;
        for (const AnnotatedLocal &local : state.locals) {
            if (selfWipingType(local.typeText))
                continue;
            bool wiped = false;
            bool escaped = false;
            for (std::size_t i = fn.bodyBegin + 1;
                 i < fn.bodyEnd && !wiped && !escaped; ++i) {
                if (t[i].kind != Tok::Ident)
                    continue;
                if (t[i].text == "secureWipe" && i + 1 < fn.bodyEnd &&
                    t[i + 1].text == "(") {
                    const std::size_t close = matchGroup(t, i + 1);
                    for (std::size_t j = i + 2;
                         j < close && j < fn.bodyEnd; ++j)
                        if (t[j].kind == Tok::Ident &&
                            t[j].text == local.name)
                            wiped = true;
                } else if (t[i].text == local.name &&
                           i + 2 < fn.bodyEnd &&
                           (t[i + 1].text == "." ||
                            t[i + 1].text == "->") &&
                           t[i + 2].text == "wipe") {
                    wiped = true;
                } else if (t[i].text == "return") {
                    const std::size_t end =
                        statementEnd(t, i + 1, fn.bodyEnd);
                    for (std::size_t j = i + 1; j < end; ++j)
                        if (t[j].kind == Tok::Ident &&
                            t[j].text == local.name)
                            escaped = true;
                }
            }
            if (!wiped && !escaped)
                report(unit, "secret-wipe", local.line, local.name,
                       "secret local '" + local.name +
                           "' leaves scope without secureWipe() "
                           "(use SecureBuf/SecretArray or wipe "
                           "explicitly)");
        }
    }

    void
    memberWipeRule(const FileUnit &unit)
    {
        for (const SecretDecl &d : unit.model.secretDecls) {
            if (selfWipingType(d.typeText))
                continue;
            if (wipedNames_.count(d.name) != 0)
                continue;
            report(unit, "secret-member-wipe", d.line, d.name,
                   "secret member '" + d.name +
                       "' has a raw type and is never wiped "
                       "(use SecretArray/SecureBuf or secureWipe in "
                       "a destructor)");
        }
    }

    // ---- race-worker-escape ----------------------------------------
    static void
    popScope(std::vector<HeldLock> &held, int depth)
    {
        while (!held.empty() && held.back().depth > depth)
            held.pop_back();
    }

    static void
    release(std::vector<HeldLock> &held, const std::string &key)
    {
        for (std::size_t i = held.size(); i-- > 0;) {
            if (held[i].key == key) {
                held.erase(held.begin() +
                           static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    /** Mutex keys named by a guard-constructor argument list
     *  `(open..close)`: the terminal identifier of each top-level
     *  argument (all of them for std::scoped_lock, the first one for
     *  single-mutex guards). */
    static std::vector<std::string>
    guardArgKeys(const std::vector<Token> &t, std::size_t open,
                 std::size_t close, bool allArgs)
    {
        std::vector<std::string> keys;
        std::string last;
        int depth = 0;
        for (std::size_t i = open + 1; i < close && i < t.size(); ++i) {
            if (t[i].kind == Tok::Punct) {
                const std::string &p = t[i].text;
                if (p == "(" || p == "[" || p == "{")
                    ++depth;
                else if (p == ")" || p == "]" || p == "}")
                    --depth;
                else if (p == "," && depth == 0) {
                    if (!last.empty())
                        keys.push_back(last);
                    last.clear();
                    if (!allArgs)
                        break;
                }
                continue;
            }
            if (t[i].kind == Tok::Ident && t[i].text != "std")
                last = t[i].text;
        }
        if (!last.empty())
            keys.push_back(last);
        if (!allArgs && keys.size() > 1)
            keys.resize(1);
        return keys;
    }

    /** If the tokens at @p i spell a RAII guard declaration
     *  (`LockGuard g(mu)`, `std::unique_lock<std::mutex> g(mu)`, ...),
     *  acquire its keys, remember the guard variable, and return the
     *  index of the closing ')'. Returns 0 when @p i is no guard. */
    static std::size_t
    guardDeclAt(const FileUnit &unit, std::size_t i, std::size_t end,
                std::vector<HeldLock> &held,
                std::map<std::string, std::vector<std::string>> &guards,
                int depth)
    {
        const auto &t = unit.lexed->tokens;
        if (raiiGuards.count(t[i].text) == 0)
            return 0;
        std::size_t j = i + 1;
        if (j < end && t[j].kind == Tok::Punct && t[j].text == "<")
            j = skipAngleGroup(t, j);
        if (j >= end || t[j].kind != Tok::Ident || j + 1 >= end ||
            t[j + 1].text != "(")
            return 0;
        const std::size_t close = matchGroup(t, j + 1);
        if (close >= t.size())
            return 0;
        const bool allArgs = t[i].text == "scoped_lock";
        const std::vector<std::string> keys =
            guardArgKeys(t, j + 1, close, allArgs);
        if (keys.empty())
            return 0;
        for (const std::string &key : keys)
            held.push_back({key, depth});
        guards[t[j].text] = keys;
        return close;
    }

    /** If the tokens at @p i spell `base.lock()` / `base.unlock()` on
     *  a known mutex or guard variable, update @p held and return the
     *  index of the '(' (the caller continues after it). Returns 0
     *  otherwise. */
    std::size_t
    explicitLockAt(const FileUnit &unit, std::size_t i, std::size_t end,
                   std::vector<HeldLock> &held,
                   const std::map<std::string,
                                  std::vector<std::string>> &guards,
                   int depth) const
    {
        const auto &t = unit.lexed->tokens;
        const std::string &s = t[i].text;
        if (s != "lock" && s != "unlock")
            return 0;
        if (i < 2 || i + 1 >= end || t[i + 1].text != "(")
            return 0;
        if (t[i - 1].text != "." && t[i - 1].text != "->")
            return 0;
        if (t[i - 2].kind != Tok::Ident)
            return 0;
        const std::string &base = t[i - 2].text;
        std::vector<std::string> keys;
        const auto g = guards.find(base);
        if (g != guards.end())
            keys = g->second;
        else if (mutexVars_.count(base) != 0)
            keys.push_back(base);
        if (keys.empty())
            return 0;
        for (const std::string &key : keys) {
            if (s == "lock")
                held.push_back({key, depth});
            else
                release(held, key);
        }
        return i + 1;
    }

    void
    workerEscapeRule(const FileUnit &unit)
    {
        const auto &t = unit.lexed->tokens;
        // Lambdas bound to variables in this file: name -> '[' index.
        std::map<std::string, std::size_t> lambdaVars;
        for (std::size_t i = 0; i + 2 < t.size(); ++i)
            if (t[i].kind == Tok::Ident && t[i + 1].text == "=" &&
                t[i + 2].text == "[")
                lambdaVars.emplace(t[i].text, i + 2);
        for (std::size_t i = 2; i + 1 < t.size(); ++i) {
            if (t[i].kind != Tok::Ident || t[i].text != "forEach")
                continue;
            if (t[i - 1].text != "." && t[i - 1].text != "->")
                continue;
            if (t[i - 2].kind != Tok::Ident || t[i + 1].text != "(")
                continue;
            const std::string recv = lowered(t[i - 2].text);
            if (recv.find("pool") == std::string::npos &&
                recv.find("engine") == std::string::npos)
                continue;
            const std::size_t close = matchGroup(t, i + 1);
            if (close >= t.size())
                continue;
            // Walk the top-level arguments for worker bodies.
            int depth = 0;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (t[j].kind == Tok::Punct) {
                    const std::string &p = t[j].text;
                    if (p == "(" || p == "{")
                        ++depth;
                    else if (p == ")" || p == "}")
                        --depth;
                    else if (p == "[" && depth == 0) {
                        scanWorkerLambda(unit, j);
                        j = matchGroup(t, j);
                        depth = 0;
                    }
                    continue;
                }
                if (depth == 0 && t[j].kind == Tok::Ident) {
                    const auto lam = lambdaVars.find(t[j].text);
                    if (lam != lambdaVars.end())
                        scanWorkerLambda(unit, lam->second);
                }
            }
        }
    }

    /** Analyze one worker lambda whose capture list opens at
     *  @p openBracket. Lock state is tracked fresh: locks held where
     *  the lambda is *defined* are not held when a worker *runs* it. */
    void
    scanWorkerLambda(const FileUnit &unit, std::size_t openBracket)
    {
        const auto &t = unit.lexed->tokens;
        const std::size_t captureEnd = matchGroup(t, openBracket);
        if (captureEnd >= t.size())
            return;
        std::set<std::string> locals;
        std::size_t j = captureEnd + 1;
        if (j < t.size() && t[j].text == "(") {
            const std::size_t parmClose = matchGroup(t, j);
            if (parmClose >= t.size())
                return;
            collectParams(t, j, parmClose, locals);
            j = parmClose + 1;
        }
        while (j < t.size() && t[j].text != "{") {
            if (t[j].text == ";")
                return; // declaration-ish, no body
            ++j;
        }
        if (j >= t.size())
            return;
        const std::size_t bodyBegin = j;
        const std::size_t bodyEnd = matchGroup(t, bodyBegin);
        if (bodyEnd >= t.size())
            return;
        std::vector<HeldLock> held;
        std::map<std::string, std::vector<std::string>> guards;
        int depth = 1;
        for (std::size_t i = bodyBegin + 1; i < bodyEnd; ++i) {
            const Token &tok = t[i];
            if (tok.kind == Tok::Punct) {
                if (tok.text == "{") {
                    ++depth;
                } else if (tok.text == "}") {
                    --depth;
                    popScope(held, depth);
                } else if (tok.text == "=" || isCompoundAssign(tok)) {
                    checkMutation(unit, i, tok.text == "=", locals,
                                  held);
                } else if (tok.text == "++" || tok.text == "--") {
                    checkIncrement(unit, i, bodyEnd, locals, held);
                }
                continue;
            }
            if (tok.kind != Tok::Ident)
                continue;
            if (const std::size_t close =
                    guardDeclAt(unit, i, bodyEnd, held, guards, depth)) {
                i = close;
                continue;
            }
            if (const std::size_t open = explicitLockAt(
                    unit, i, bodyEnd, held, guards, depth)) {
                i = open;
                continue;
            }
            if (tok.text == "for" && i + 1 < bodyEnd &&
                t[i + 1].text == "(")
                collectForLoopVar(t, i + 1, bodyEnd, locals);
        }
    }

    static bool
    isCompoundAssign(const Token &tok)
    {
        static const std::set<std::string> ops = {
            "+=", "-=", "*=", "/=",  "%=",
            "&=", "|=", "^=", "<<=", ">>=",
        };
        return tok.kind == Tok::Punct && ops.count(tok.text) != 0;
    }

    /** Declared parameter names of a lambda: the last identifier of
     *  each top-level comma segment of `(open..close)`. */
    static void
    collectParams(const std::vector<Token> &t, std::size_t open,
                  std::size_t close, std::set<std::string> &out)
    {
        std::string last;
        int depth = 0;
        for (std::size_t i = open + 1; i < close; ++i) {
            if (t[i].kind == Tok::Punct) {
                const std::string &p = t[i].text;
                if (p == "(" || p == "[" || p == "{" || p == "<")
                    ++depth;
                else if (p == ")" || p == "]" || p == "}" || p == ">")
                    --depth;
                else if (p == "," && depth == 0) {
                    if (!last.empty())
                        out.insert(last);
                    last.clear();
                }
                continue;
            }
            if (t[i].kind == Tok::Ident)
                last = t[i].text;
        }
        if (!last.empty())
            out.insert(last);
    }

    /** The loop variable of `for (...)` with the '(' at @p open:
     *  the identifier before the first top-level '=' (classic form)
     *  or before the ':' (range form). */
    static void
    collectForLoopVar(const std::vector<Token> &t, std::size_t open,
                      std::size_t end, std::set<std::string> &out)
    {
        std::string last;
        int depth = 1;
        for (std::size_t i = open + 1; i < end; ++i) {
            if (t[i].kind == Tok::Punct) {
                const std::string &p = t[i].text;
                if (p == "(")
                    ++depth;
                else if (p == ")") {
                    if (--depth == 0)
                        break;
                } else if (depth == 1 &&
                           (p == "=" || p == ":" || p == ";")) {
                    break;
                }
                continue;
            }
            if (t[i].kind == Tok::Ident)
                last = t[i].text;
        }
        if (!last.empty())
            out.insert(last);
    }

    /** Walk left from the token before an assignment operator at
     *  @p opIdx to the base identifier of the target expression
     *  (`shard.count` -> "shard"), noting subscripts on the way.
     *  Returns "" when the target is not a plain member chain. */
    static std::string
    assignTargetBase(const std::vector<Token> &t, std::size_t opIdx,
                     bool &subscripted, std::size_t &baseIdx)
    {
        subscripted = false;
        std::size_t j = opIdx;
        while (j > 0) {
            --j;
            if (t[j].kind == Tok::Punct && t[j].text == "]") {
                subscripted = true;
                int depth = 1;
                while (j > 0 && depth > 0) {
                    --j;
                    if (t[j].text == "]")
                        ++depth;
                    else if (t[j].text == "[")
                        --depth;
                }
                if (depth != 0)
                    return "";
                continue; // token before the '[' is next
            }
            if (t[j].kind == Tok::Ident) {
                if (j >= 2 && (t[j - 1].text == "." ||
                               t[j - 1].text == "->")) {
                    --j; // keep walking the member chain
                    continue;
                }
                baseIdx = j;
                return t[j].text;
            }
            return "";
        }
        return "";
    }

    /** True when the identifier at @p idx is being *declared* (type
     *  tokens precede it), so `auto sum = 0;` is a local, not a
     *  mutation of outer state. */
    static bool
    looksLikeDecl(const std::vector<Token> &t, std::size_t idx)
    {
        if (idx == 0)
            return false;
        const Token &prev = t[idx - 1];
        if (prev.kind == Tok::Ident)
            return prev.text != "return" && prev.text != "co_return" &&
                   prev.text != "else" && prev.text != "delete";
        return prev.kind == Tok::Punct &&
               (prev.text == "*" || prev.text == "&" ||
                prev.text == "&&" || prev.text == ">");
    }

    void
    checkMutation(const FileUnit &unit, std::size_t opIdx,
                  bool plainAssign, std::set<std::string> &locals,
                  const std::vector<HeldLock> &held)
    {
        const auto &t = unit.lexed->tokens;
        bool subscripted = false;
        std::size_t baseIdx = 0;
        const std::string base =
            assignTargetBase(t, opIdx, subscripted, baseIdx);
        if (base.empty())
            return;
        // A declaration initializer introduces a worker-local name.
        if (plainAssign && baseIdx + 1 == opIdx &&
            looksLikeDecl(t, baseIdx)) {
            locals.insert(base);
            return;
        }
        reportEscape(unit, t[opIdx].line, base, subscripted, locals,
                     held);
    }

    void
    checkIncrement(const FileUnit &unit, std::size_t opIdx,
                   std::size_t end, const std::set<std::string> &locals,
                   const std::vector<HeldLock> &held)
    {
        const auto &t = unit.lexed->tokens;
        bool subscripted = false;
        std::size_t baseIdx = 0;
        std::string base;
        if (opIdx > 0 && (t[opIdx - 1].kind == Tok::Ident ||
                          t[opIdx - 1].text == "]")) {
            // post-increment: walk the chain left of the operator
            base = assignTargetBase(t, opIdx, subscripted, baseIdx);
        } else if (opIdx + 1 < end && t[opIdx + 1].kind == Tok::Ident) {
            // pre-increment: the base is the first chain identifier
            base = t[opIdx + 1].text;
        }
        if (base.empty())
            return;
        reportEscape(unit, t[opIdx].line, base, subscripted, locals,
                     held);
    }

    void
    reportEscape(const FileUnit &unit, unsigned line,
                 const std::string &base, bool subscripted,
                 const std::set<std::string> &locals,
                 const std::vector<HeldLock> &held)
    {
        if (subscripted)
            return; // index-addressed store, the sanctioned pattern
        if (locals.count(base) != 0)
            return; // worker-local state
        if (!held.empty())
            return; // mutation under a lock the worker itself takes
        if (workerSafeNames_.count(base) != 0)
            return; // guarded, shard-local, or atomic state
        report(unit, "race-worker-escape", line, base,
               "worker lambda mutates captured '" + base +
                   "' without a lock, atomic type, or "
                   "MORPH_SHARD_LOCAL annotation");
    }

    // ---- race-naked-static ----------------------------------------------

    void
    nakedStaticRule(const FileUnit &unit)
    {
        const SourceModel &m = unit.model;
        for (const VarDecl &v : m.varDecls) {
            const bool fileScope = v.klass.empty();
            if (!fileScope && !v.isStatic)
                continue; // instance members are per-object state
            if (v.isConst || v.isThreadLocal)
                continue;
            if (mentionsAtomic(v.typeText) || mentionsMutex(v.typeText))
                continue;
            bool annotated = false;
            for (const Annotation &a : v.annotations)
                if (a.macro == "MORPH_GUARDED_BY" ||
                    a.macro == "MORPH_SHARD_LOCAL" ||
                    a.macro == "MORPH_MAIN_THREAD")
                    annotated = true;
            if (annotated)
                continue;
            report(unit, "race-naked-static", v.line, v.name,
                   "mutable " +
                       std::string(fileScope ? "namespace-scope"
                                             : "static member") +
                       " '" + v.name +
                       "' has no MORPH_GUARDED_BY / MORPH_SHARD_LOCAL "
                       "/ MORPH_MAIN_THREAD annotation");
        }
        // Function-local statics.
        const auto &t = unit.lexed->tokens;
        for (const FunctionDef &f : m.functions) {
            for (std::size_t i = f.bodyBegin + 1; i < f.bodyEnd; ++i) {
                if (t[i].kind != Tok::Ident || t[i].text != "static")
                    continue;
                std::size_t stop = i + 1;
                bool safe = false;
                std::string name;
                while (stop < f.bodyEnd && t[stop].text != ";" &&
                       t[stop].text != "=" && t[stop].text != "{") {
                    if (t[stop].kind == Tok::Ident) {
                        const std::string &w = t[stop].text;
                        if (w == "const" || w == "constexpr" ||
                            w == "thread_local" ||
                            w.find("atomic") != std::string::npos ||
                            w == "once_flag")
                            safe = true;
                        else
                            name = w;
                    }
                    ++stop;
                }
                if (!safe && !name.empty())
                    report(unit, "race-naked-static", t[i].line, name,
                           "mutable function-local static '" + name +
                               "' has no concurrency annotation "
                               "(use std::atomic, const, or guard "
                               "it)");
                i = stop;
            }
        }
    }

    // ---- determinism rules -------------------------------------------

    void
    determinismRules(const FileUnit &unit)
    {
        const auto &t = unit.lexed->tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != Tok::Ident)
                continue;
            const std::string &s = t[i].text;
            const bool member_call =
                i > 0 &&
                (t[i - 1].text == "." || t[i - 1].text == "->");
            if (s == "random_device") {
                if (!member_call)
                    report(unit, "nondet-call", t[i].line, s,
                           "std::random_device breaks run-to-run "
                           "determinism; seed a fixed-seed engine "
                           "instead");
                continue;
            }
            if (isBannedNondet(s) && i + 1 < t.size() &&
                t[i + 1].text == "(" && !member_call) {
                const bool qualified = i > 0 && t[i - 1].text == "::";
                if (qualified &&
                    (i < 2 || t[i - 2].text != "std"))
                    continue;
                // A preceding type name means this is the declaration
                // or definition of a same-named member ("Cycle
                // clock() const"), not a call to the libc function.
                if (!qualified && i > 0 &&
                    t[i - 1].kind == Tok::Ident &&
                    t[i - 1].text != "return" &&
                    t[i - 1].text != "case" &&
                    t[i - 1].text != "co_return")
                    continue;
                report(unit, "nondet-call", t[i].line, s,
                       "call to non-deterministic '" + s +
                           "' in a determinism-scoped path");
                continue;
            }
            if (s == "for" && i + 1 < t.size() &&
                t[i + 1].text == "(")
                checkRangeFor(unit, i + 1);
        }
    }

    void
    checkRangeFor(const FileUnit &unit, std::size_t open)
    {
        const auto &t = unit.lexed->tokens;
        const std::size_t close = matchGroup(t, open);
        if (close >= t.size())
            return;
        std::size_t colon = npos;
        int depth = 0;
        for (std::size_t i = open + 1; i < close; ++i) {
            const std::string &s = t[i].text;
            if (s == "(" || s == "[" || s == "{") {
                ++depth;
            } else if (s == ")" || s == "]" || s == "}") {
                --depth;
            } else if (s == ";" && depth == 0) {
                return; // classic for loop
            } else if (s == ":" && depth == 0) {
                colon = i;
                break;
            }
        }
        if (colon == npos)
            return;
        for (std::size_t i = colon + 1; i < close; ++i) {
            if (t[i].kind == Tok::Ident &&
                unorderedAll_.count(t[i].text) != 0) {
                report(unit, "nondet-iter", t[i].line, t[i].text,
                       "range-for over unordered container '" +
                           t[i].text +
                           "' feeds iteration-order-dependent "
                           "results; iterate a sorted view");
                return;
            }
        }
    }

    // ---- finding collection --------------------------------------------

    /** Record a finding, unless this exact one was already recorded. */
    void
    report(const FileUnit &unit, const std::string &rule, unsigned line,
           const std::string &symbol, const std::string &message)
    {
        const std::string key = unit.meta.path + ":" +
                                std::to_string(line) + ":" + rule + ":" +
                                symbol;
        if (!reported_.insert(key).second)
            return;
        Finding f;
        f.rule = rule;
        f.file = unit.meta.path;
        f.symbol = symbol;
        f.message = message;
        f.line = line;
        f.waived = unit.model.waived(rule, line);
        (f.waived ? result_.waived : result_.findings)
            .push_back(std::move(f));
    }

    /** The result sorted by file, line, rule and symbol; call once,
     *  after every rule has run. */
    AnalysisResult
    takeResult()
    {
        const auto order = [](const Finding &a, const Finding &b) {
            if (a.file != b.file)
                return a.file < b.file;
            if (a.line != b.line)
                return a.line < b.line;
            if (a.rule != b.rule)
                return a.rule < b.rule;
            return a.symbol < b.symbol;
        };
        std::sort(result_.findings.begin(), result_.findings.end(), order);
        std::sort(result_.waived.begin(), result_.waived.end(), order);
        return std::move(result_);
    }

    std::vector<FileUnit> units_;
    std::set<std::string> reported_;
    AnalysisResult result_;

    std::set<std::string> globalSecretNames_;
    std::set<std::string> secretReturnFns_;
    std::set<std::string> declassifiers_;
    std::set<std::string> definedFns_;
    std::map<std::string, std::set<std::string>> defFiles_;
    std::set<std::string> unorderedAll_;
    std::set<std::string> wipedNames_;
    std::map<std::string, std::set<std::size_t>> secretParams_;
    /** Names declared MORPH_GUARDED_BY, MORPH_SHARD_LOCAL or atomic:
     *  a worker lambda may mutate them. */
    std::set<std::string> workerSafeNames_;
    /** Names declared with a mutex type: `name.lock()` acquires. */
    std::set<std::string> mutexVars_;
};

} // namespace

AnalysisResult
analyzeSources(const std::vector<SourceText> &sources)
{
    return Analyzer(sources).run();
}

} // namespace morph::analysis