#include "analysis/race_analyzer.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/batch.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{
namespace
{

/** A mutex key held at some brace depth inside a function body. */
struct HeldLock
{
    std::string key;
    int depth = 0;
};

/** Last identifier-ish word of an annotation argument or expression
 *  ("shard . lock" -> "lock", "lock_" -> "lock_"). Mutexes are
 *  identified by this terminal name everywhere: the analyzer matches
 *  lock *names*, not objects, the same name-based approximation the
 *  secret-flow analyzer uses for taint. */
std::string
terminalIdent(const std::string &text)
{
    std::string word;
    std::string last;
    for (const char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
            c == '_') {
            word += c;
        } else {
            if (!word.empty())
                last = word;
            word.clear();
        }
    }
    if (!word.empty())
        last = word;
    return last;
}

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

class Analyzer : public BatchAnalyzer
{
  public:
    using BatchAnalyzer::BatchAnalyzer;

    AnalysisResult
    run()
    {
        seed();
        for (const FileUnit &unit : units_) {
            for (const FunctionDef &f : unit.model.functions)
                scanFunction(unit, f);
            workerEscapeRule(unit);
            if (unit.meta.staticScope)
                nakedStaticRule(unit);
        }
        lockOrderRule();
        return takeResult();
    }

  private:
    // ---- seeding -----------------------------------------------------

    void
    mergeFnAnnotations(const std::string &name,
                       const std::vector<Annotation> &anns)
    {
        for (const Annotation &a : anns) {
            for (const std::string &arg : a.args) {
                const std::string key = terminalIdent(arg);
                if (key.empty())
                    continue;
                if (a.macro == "MORPH_REQUIRES")
                    fnRequires_[name].insert(key);
                else if (a.macro == "MORPH_EXCLUDES")
                    fnExcludes_[name].insert(key);
            }
        }
    }

    void
    seed()
    {
        for (const FileUnit &unit : units_) {
            const SourceModel &m = unit.model;
            for (const VarDecl &v : m.varDecls) {
                for (const Annotation &a : v.annotations) {
                    if (a.macro == "MORPH_GUARDED_BY" &&
                        !a.args.empty()) {
                        const std::string key =
                            terminalIdent(a.args.front());
                        if (!key.empty()) {
                            guardedBy_[{v.klass, v.name}].insert(key);
                            guardedByName_[v.name].insert(key);
                        }
                    } else if (a.macro == "MORPH_SHARD_LOCAL") {
                        shardLocal_.insert(v.name);
                    } else if (a.macro == "MORPH_MAIN_THREAD") {
                        mainThread_.insert(v.name);
                    }
                }
                if (!v.klass.empty())
                    members_.insert({v.klass, v.name});
                if (mentionsAtomic(v.typeText))
                    atomicVars_.insert(v.name);
                if (mentionsMutex(v.typeText))
                    mutexVars_.insert(v.name);
            }
            // Contract annotations bind by function name whether they
            // sit on the declaration (headers) or the definition.
            for (const FunctionDef &f : m.functions)
                mergeFnAnnotations(f.name, f.annotations);
            for (const FunctionAnnotations &fa : m.fnAnnotations)
                mergeFnAnnotations(fa.name, fa.annotations);
        }
    }

    // ---- guarded members ----------------------------------------------

    /** The class a member function belongs to: the qualifier of an
     *  out-of-line definition, else the innermost class body around
     *  it; "" for a free function. */
    static std::string
    classOf(const FileUnit &unit, const FunctionDef &f)
    {
        const std::size_t sep = f.qualName.rfind("::");
        if (sep != std::string::npos)
            return f.qualName.substr(0, sep);
        std::string klass;
        for (const ClassDef &c : unit.model.classes)
            if (c.bodyBegin < f.headerBegin && f.bodyEnd < c.bodyEnd)
                klass = c.name; // classes come outer before inner
        return klass;
    }

    /**
     * The locks guarding member @p name as seen from a function of
     * @p klass, or nullptr if it is unguarded. A bare name (or
     * this->name) in a class declaring @p name is that class's
     * member. Otherwise, reached through another object or declared
     * in no enclosing class, it is checked against every class's
     * guard on that name.
     */
    const std::set<std::string> *
    guardsOf(const std::string &klass, const std::string &name,
             bool via_object) const
    {
        if (!via_object && !klass.empty()) {
            const auto own = guardedBy_.find({klass, name});
            if (own != guardedBy_.end())
                return &own->second;
            if (members_.count({klass, name}) != 0)
                return nullptr;
        }
        const auto any = guardedByName_.find(name);
        return any != guardedByName_.end() ? &any->second : nullptr;
    }

    // ---- held-lock tracking ------------------------------------------

    static bool
    heldHas(const std::vector<HeldLock> &held, const std::string &key)
    {
        for (const HeldLock &h : held)
            if (h.key == key)
                return true;
        return false;
    }

    static void
    popScope(std::vector<HeldLock> &held, int depth)
    {
        while (!held.empty() && held.back().depth > depth)
            held.pop_back();
    }

    void
    acquire(const FileUnit &unit, unsigned line,
            std::vector<HeldLock> &held, const std::string &key,
            int depth, bool recordEdges)
    {
        if (heldHas(held, key)) {
            report(unit, "race-lock-order", line, key,
                   "mutex '" + key + "' acquired while already held");
            return;
        }
        if (recordEdges)
            for (const HeldLock &h : held)
                edges_.emplace(std::make_pair(h.key, key),
                               EdgeSite{&unit, line});
        held.push_back({key, depth});
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
    std::size_t
    guardDeclAt(const FileUnit &unit, std::size_t i, std::size_t end,
                std::vector<HeldLock> &held,
                std::map<std::string, std::vector<std::string>> &guards,
                int depth, bool recordEdges)
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
            acquire(unit, t[i].line, held, key, depth, recordEdges);
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
                   int depth, bool recordEdges)
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
                acquire(unit, t[i].line, held, key, depth, recordEdges);
            else
                release(held, key);
        }
        return i + 1;
    }

    // ---- per-function contract scan ----------------------------------

    void
    scanFunction(const FileUnit &unit, const FunctionDef &f)
    {
        const auto &t = unit.lexed->tokens;
        if (f.bodyEnd <= f.bodyBegin || f.bodyEnd >= t.size())
            return;
        std::vector<HeldLock> held;
        std::map<std::string, std::vector<std::string>> guards;
        const std::string klass = classOf(unit, f);
        // MORPH_REQUIRES locks are held for the whole body (depth 0
        // never pops).
        const auto req = fnRequires_.find(f.name);
        if (req != fnRequires_.end())
            for (const std::string &key : req->second)
                held.push_back({key, 0});
        int depth = 1;
        for (std::size_t i = f.bodyBegin + 1; i < f.bodyEnd; ++i) {
            const Token &tok = t[i];
            if (tok.kind == Tok::Punct) {
                if (tok.text == "{") {
                    ++depth;
                } else if (tok.text == "}") {
                    --depth;
                    popScope(held, depth);
                }
                continue;
            }
            if (tok.kind != Tok::Ident)
                continue;
            if (const std::size_t close = guardDeclAt(
                    unit, i, f.bodyEnd, held, guards, depth, true)) {
                i = close;
                continue;
            }
            if (const std::size_t open = explicitLockAt(
                    unit, i, f.bodyEnd, held, guards, depth, true)) {
                i = open;
                continue;
            }
            const bool via_object =
                (t[i - 1].text == "." || t[i - 1].text == "->") &&
                t[i - 2].text != "this";
            if (const std::set<std::string> *guarded =
                    guardsOf(klass, tok.text, via_object)) {
                bool ok = false;
                for (const std::string &key : *guarded)
                    if (heldHas(held, key))
                        ok = true;
                if (!ok)
                    report(unit, "race-unguarded", tok.line, tok.text,
                           "'" + tok.text + "' (MORPH_GUARDED_BY " +
                               joinKeys(*guarded) +
                               ") accessed without the lock held");
            }
            if (i + 1 < f.bodyEnd && t[i + 1].text == "(") {
                const auto r = fnRequires_.find(tok.text);
                if (r != fnRequires_.end())
                    for (const std::string &key : r->second)
                        if (!heldHas(held, key))
                            report(unit, "race-requires", tok.line,
                                   tok.text,
                                   "call to '" + tok.text +
                                       "' (MORPH_REQUIRES " + key +
                                       ") without '" + key +
                                       "' held");
                const auto e = fnExcludes_.find(tok.text);
                if (e != fnExcludes_.end())
                    for (const std::string &key : e->second)
                        if (heldHas(held, key))
                            report(unit, "race-exclude", tok.line,
                                   tok.text,
                                   "call to '" + tok.text +
                                       "' (MORPH_EXCLUDES " + key +
                                       ") while '" + key + "' held");
            }
        }
    }

    static std::string
    joinKeys(const std::set<std::string> &keys)
    {
        std::string out;
        for (const std::string &k : keys) {
            if (!out.empty())
                out += ", ";
            out += k;
        }
        return out;
    }

    // ---- race-lock-order ----------------------------------------------

    void
    lockOrderRule()
    {
        std::map<std::string, std::set<std::string>> adj;
        for (const auto &entry : edges_)
            adj[entry.first.first].insert(entry.first.second);
        for (const auto &entry : edges_) {
            const std::string &from = entry.first.first;
            const std::string &to = entry.first.second;
            if (!reaches(adj, to, from))
                continue;
            report(*entry.second.unit, "race-lock-order",
                   entry.second.line, to,
                   "acquiring '" + to + "' while holding '" + from +
                       "' closes a lock-order cycle ('" + to +
                       "' is also taken before '" + from +
                       "' elsewhere in the batch)");
        }
    }

    static bool
    reaches(const std::map<std::string, std::set<std::string>> &adj,
            const std::string &from, const std::string &to)
    {
        std::set<std::string> seen;
        std::vector<std::string> stack = {from};
        while (!stack.empty()) {
            const std::string cur = stack.back();
            stack.pop_back();
            if (cur == to)
                return true;
            if (!seen.insert(cur).second)
                continue;
            const auto it = adj.find(cur);
            if (it == adj.end())
                continue;
            for (const std::string &next : it->second)
                stack.push_back(next);
        }
        return false;
    }

    // ---- race-worker-escape --------------------------------------------

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
                    guardDeclAt(unit, i, bodyEnd, held, guards, depth,
                                false)) {
                i = close;
                continue;
            }
            if (const std::size_t open =
                    explicitLockAt(unit, i, bodyEnd, held, guards,
                                   depth, false)) {
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
        if (shardLocal_.count(base) != 0 ||
            guardedByName_.count(base) != 0 ||
            atomicVars_.count(base) != 0)
            return;
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

    struct EdgeSite
    {
        const FileUnit *unit = nullptr;
        unsigned line = 0;
    };

    /** (class, member) -> the locks its MORPH_GUARDED_BY names. */
    std::map<std::pair<std::string, std::string>, std::set<std::string>>
        guardedBy_;
    /** member -> the union of its guards over every class. */
    std::map<std::string, std::set<std::string>> guardedByName_;
    /** Every (class, member) declared. */
    std::set<std::pair<std::string, std::string>> members_;
    std::set<std::string> shardLocal_;
    std::set<std::string> mainThread_;
    std::set<std::string> atomicVars_;
    std::set<std::string> mutexVars_;
    std::map<std::string, std::set<std::string>> fnRequires_;
    std::map<std::string, std::set<std::string>> fnExcludes_;
    /** held -> acquired, with the first site that created the edge. */
    std::map<std::pair<std::string, std::string>, EdgeSite> edges_;
};

} // namespace

AnalysisResult
analyzeRaces(const std::vector<SourceText> &sources, LexCache *cache)
{
    return Analyzer(sources, cache).run();
}

} // namespace morph::analysis
