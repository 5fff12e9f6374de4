#include "analysis/source_model.hh"

#include <algorithm>

namespace morph::analysis
{

namespace
{

const char secretMarker[] = "MORPH_SECRET";

/** All MORPH_* annotation macros share this prefix; anything carrying
 *  it is skipped as a qualifier and recorded as an annotation. */
bool
isAnnotationName(const std::string &s)
{
    return s.rfind("MORPH_", 0) == 0;
}

bool
isControlKeyword(const std::string &s)
{
    static const char *const kw[] = {
        "if",     "for",    "while",         "switch", "catch",
        "return", "sizeof", "alignof",       "decltype", "new",
        "delete", "throw",  "static_assert", "assert",
    };
    return std::any_of(std::begin(kw), std::end(kw),
                       [&](const char *k) { return s == k; });
}

/** Last identifier of a declarator token run: the declared name.
 *  Handles trailing `&` / `*` (unnamed params) and `[N]` arrays. */
std::string
declaratorName(const std::vector<Token> &tokens, std::size_t begin,
               std::size_t end)
{
    std::size_t last = end;
    while (last > begin) {
        --last;
        const Token &t = tokens[last];
        if (t.kind == Tok::Ident)
            return t.text;
        if (t.text == "]") {
            // Skip back over the bracket group to the element name.
            unsigned depth = 1;
            while (last > begin && depth > 0) {
                --last;
                if (tokens[last].text == "]")
                    ++depth;
                else if (tokens[last].text == "[")
                    --depth;
            }
            continue;
        }
        if (t.text == "&" || t.text == "*" || t.text == "." ||
            t.kind == Tok::Number)
            continue;
        break;
    }
    return {};
}

class ModelBuilder
{
  public:
    explicit ModelBuilder(const LexedSource &src) : src_(src)
    {
        model_.src = &src;
    }

    SourceModel
    run()
    {
        findFunctions();
        findClasses();
        scanMembers();
        scanFileScopeDecls();
        scanDeclarations();
        scanUnorderedNames();
        scanFileWaivers();
        return std::move(model_);
    }

  private:
    const std::vector<Token> &
    toks() const
    {
        return src_.tokens;
    }

    /** Token ranges [header, bodyEnd] already claimed by functions. */
    bool
    insideFunction(std::size_t idx) const
    {
        return std::any_of(
            model_.functions.begin(), model_.functions.end(),
            [&](const FunctionDef &f) {
                return idx >= f.headerBegin && idx <= f.bodyEnd;
            });
    }

    void
    findFunctions()
    {
        const auto &t = toks();
        std::size_t i = 0;
        while (i + 1 < t.size()) {
            // Operator overloads first: the generic Ident-then-paren
            // shape cannot see past the operator's symbol tokens.
            if (t[i].kind == Tok::Ident && t[i].text == "operator") {
                FunctionDef def;
                if (matchOperator(i, def)) {
                    const std::size_t next = def.bodyEnd + 1;
                    model_.functions.push_back(std::move(def));
                    i = next;
                    continue;
                }
            }
            if (t[i].kind == Tok::Ident && t[i + 1].text == "(" &&
                !isControlKeyword(t[i].text) &&
                !isAnnotationName(t[i].text) &&
                !(i > 0 &&
                  (t[i - 1].text == "." || t[i - 1].text == "->"))) {
                FunctionDef def;
                if (matchFunction(i, def)) {
                    const std::size_t next = def.bodyEnd + 1;
                    model_.functions.push_back(std::move(def));
                    i = next;
                    continue;
                }
            }
            ++i;
        }
    }

    /** Try to shape a function definition with its name at @p i. */
    bool
    matchFunction(std::size_t i, FunctionDef &def)
    {
        if (!matchFunctionShape(i, i + 1, def))
            return false;
        def.name = toks()[i].text;
        return true;
    }

    /** Try to shape an operator-overload definition: `operator` at
     *  @p i, its symbol / conversion type, then the parameter list.
     *  Handles `operator==`, `operator()`, `operator[]`,
     *  `operator bool`, `operator std::size_t`, ... */
    bool
    matchOperator(std::size_t i, FunctionDef &def)
    {
        const auto &t = toks();
        if (i + 2 >= t.size())
            return false;
        std::string op;
        std::size_t open;
        if (t[i + 1].text == "(" && t[i + 2].text == ")") {
            op = "()";
            open = i + 3;
        } else if (t[i + 1].text == "[" && t[i + 2].text == "]") {
            op = "[]";
            open = i + 3;
        } else if (t[i + 1].kind == Tok::Punct) {
            // Symbol operators are one token: the lexer keeps ==, <=,
            // <<, ->, ... whole.
            op = t[i + 1].text;
            open = i + 2;
        } else {
            // Conversion (or new/delete) operator: the target type
            // runs up to the parameter list.
            std::size_t j = i + 1;
            while (j < t.size() && t[j].text != "(" &&
                   (t[j].kind == Tok::Ident || t[j].text == "::" ||
                    t[j].text == "*" || t[j].text == "&")) {
                if (!op.empty())
                    op += ' ';
                op += t[j].text;
                ++j;
            }
            if (op.empty())
                return false;
            op = " " + op;
            open = j;
        }
        if (open >= t.size() || t[open].text != "(")
            return false;
        if (!matchFunctionShape(i, open, def))
            return false;
        def.name = "operator" + op;
        return true;
    }

    /** Shape the common tail of a function definition: parameter
     *  group at @p open, qualifiers / annotations / init list, body.
     *  @p name_idx is the token the definition is anchored on (the
     *  name, or `operator`). Fills everything but the name. */
    bool
    matchFunctionShape(std::size_t name_idx, std::size_t open,
                       FunctionDef &def)
    {
        const auto &t = toks();
        const std::size_t close = matchGroup(t, open);
        if (close >= t.size())
            return false;

        std::size_t j = close + 1;
        // Qualifiers, annotations, trailing return, constructor init
        // list — then '{'.
        while (j < t.size()) {
            const std::string &s = t[j].text;
            if (s == "const" || s == "override" || s == "final" ||
                s == "mutable" || s == "&" || s == "&&") {
                ++j;
                continue;
            }
            if (t[j].kind == Tok::Ident && isAnnotationName(s)) {
                ++j;
                if (j < t.size() && t[j].text == "(") {
                    j = matchGroup(t, j);
                    if (j >= t.size())
                        return false;
                    ++j;
                }
                continue;
            }
            if (s == "noexcept" || s == "throw") {
                ++j;
                if (j < t.size() && t[j].text == "(") {
                    j = matchGroup(t, j);
                    if (j >= t.size())
                        return false;
                    ++j;
                }
                continue;
            }
            if (s == "->") {
                // Trailing return type: scan to the body brace.
                ++j;
                while (j < t.size() && t[j].text != "{" &&
                       t[j].text != ";")
                    ++j;
                continue;
            }
            if (s == ":") {
                if (!skipInitList(j))
                    return false;
                continue;
            }
            break;
        }
        if (j >= t.size() || t[j].text != "{")
            return false;

        const std::size_t body_end = matchGroup(t, j);
        if (body_end >= t.size())
            return false;

        def.headerBegin = headerStart(name_idx);
        def.bodyBegin = j;
        def.bodyEnd = body_end;
        def.line = t[name_idx].line;
        def.secretReturn = returnIsSecret(def.headerBegin, name_idx);
        parseParams(open, close, def);
        return true;
    }

    /** Constructor member-init list: `: a_(x), b_{y} ... {`. Leaves
     *  @p j on the body '{'. */
    bool
    skipInitList(std::size_t &j)
    {
        const auto &t = toks();
        ++j; // ':'
        while (j < t.size()) {
            // Initializer name (possibly qualified / templated).
            while (j < t.size() && t[j].text != "(" &&
                   t[j].text != "{" && t[j].text != ";")
                ++j;
            if (j >= t.size() || t[j].text == ";")
                return false;
            // A '{' directly here could be the body (empty init name
            // cannot happen, so '{' after a name is a brace init —
            // distinguish by what follows the matched group).
            const std::size_t group_close = matchGroup(t, j);
            if (group_close >= t.size())
                return false;
            const std::size_t after = group_close + 1;
            if (after < t.size() && t[after].text == ",") {
                j = after + 1;
                continue;
            }
            // Init list exhausted: the body brace must follow.
            j = after;
            return j < t.size() && t[j].text == "{";
        }
        return false;
    }

    /** Record the MORPH_* annotation at @p i into @p out; returns the
     *  last token index consumed (macro name, or its closing ')'). */
    std::size_t
    collectAnnotation(std::size_t i, std::vector<Annotation> &out)
    {
        const auto &t = toks();
        out.push_back({t[i].text});
        std::size_t last = i;
        if (i + 1 < t.size() && t[i + 1].text == "(") {
            const std::size_t close = matchGroup(t, i + 1);
            if (close < t.size())
                last = close;
        }
        return last;
    }

    /** Index of the '>' closing the '<' at @p open (angle depth,
     *  ">>" closes two); tokens.size() if unbalanced. */
    std::size_t
    skipAngles(std::size_t open) const
    {
        const auto &t = toks();
        int depth = 0;
        for (std::size_t j = open; j < t.size(); ++j) {
            const std::string &s = t[j].text;
            if (s == "<") {
                ++depth;
            } else if (s == ">") {
                if (--depth == 0)
                    return j;
            } else if (s == ">>") {
                depth -= 2;
                if (depth <= 0)
                    return j;
            } else if (s == ";" || s == "{") {
                break; // not a template argument list after all
            }
        }
        return t.size();
    }

    void
    findClasses()
    {
        const auto &t = toks();
        // Stack of enclosing class bodies, for nested qualification.
        std::vector<std::pair<std::size_t, std::string>> stack;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            while (!stack.empty() && i > stack.back().first)
                stack.pop_back();
            const std::string &s = t[i].text;
            if (s == "template" && t[i + 1].text == "<") {
                // `template <class T>`: T is a parameter, not a class.
                const std::size_t close = skipAngles(i + 1);
                if (close < t.size())
                    i = close;
                continue;
            }
            if (s != "class" && s != "struct")
                continue;
            if (i > 0 && t[i - 1].text == "enum")
                continue;
            std::size_t j = i + 1;
            // Attribute macros between the keyword and the name
            // (class MORPH_CAPABILITY("mutex") Mutex).
            std::vector<Annotation> anns;
            while (j < t.size() && t[j].kind == Tok::Ident &&
                   isAnnotationName(t[j].text))
                j = collectAnnotation(j, anns) + 1;
            if (j >= t.size() || t[j].kind != Tok::Ident)
                continue; // anonymous — not modelled
            const std::size_t name_idx = j;
            ++j;
            // Base clause / nothing, then the body; ';' = fwd decl.
            while (j < t.size() && t[j].text != "{" &&
                   t[j].text != ";" && t[j].text != "(" &&
                   t[j].text != "=")
                ++j;
            if (j >= t.size() || t[j].text != "{")
                continue;
            const std::size_t body_end = matchGroup(t, j);
            if (body_end >= t.size())
                continue;
            ClassDef def;
            def.name = stack.empty()
                           ? t[name_idx].text
                           : stack.back().second +
                                 "::" + t[name_idx].text;
            def.bodyBegin = j;
            def.bodyEnd = body_end;
            def.line = t[name_idx].line;
            stack.emplace_back(body_end, def.name);
            model_.classes.push_back(std::move(def));
            i = j; // continue inside the body: nested classes
        }
    }

    /** The function claiming token @p idx, if any. */
    const FunctionDef *
    functionAt(std::size_t idx) const
    {
        for (const FunctionDef &f : model_.functions)
            if (idx >= f.headerBegin && idx <= f.bodyEnd)
                return &f;
        return nullptr;
    }

    /** The class whose body opens exactly at @p idx, if any. */
    const ClassDef *
    classBodyAt(std::size_t idx) const
    {
        for (const ClassDef &c : model_.classes)
            if (c.bodyBegin == idx)
                return &c;
        return nullptr;
    }

    void
    scanMembers()
    {
        // Iterate by index: classifyStatement appends to the model.
        const std::size_t count = model_.classes.size();
        for (std::size_t c = 0; c < count; ++c) {
            const ClassDef cls = model_.classes[c];
            scanStatements(cls.bodyBegin + 1, cls.bodyEnd, cls.name);
        }
    }

    void
    scanFileScopeDecls()
    {
        scanStatements(0, toks().size(), std::string());
    }

    /** Walk declaration statements in [begin, end): the member level
     *  of a class body (@p klass non-empty) or file scope. Function
     *  definitions and nested class bodies are skipped whole;
     *  namespace blocks are entered. */
    void
    scanStatements(std::size_t begin, std::size_t end,
                   const std::string &klass)
    {
        const auto &t = toks();
        const bool file_scope = klass.empty();
        std::size_t i = begin;
        std::size_t stmt = begin;
        while (i < end) {
            if (const FunctionDef *f = functionAt(i)) {
                i = f->bodyEnd + 1;
                stmt = i;
                continue;
            }
            const std::string &s = t[i].text;
            if (s == "{") {
                if (const ClassDef *cd = classBodyAt(i)) {
                    // Nested class: members get their own pass; the
                    // statement ends at the trailing ';' and is
                    // dropped by the starts-with-class filter.
                    i = cd->bodyEnd + 1;
                    continue;
                }
                if (file_scope &&
                    stmtStartsWith(stmt, i, "namespace")) {
                    ++i;
                    stmt = i;
                    continue;
                }
                i = matchGroup(t, i) + 1; // brace init / enum body
                continue;
            }
            if (s == "}") {
                ++i;
                stmt = i;
                continue;
            }
            if (s == "(" || s == "[") {
                i = matchGroup(t, i) + 1;
                continue;
            }
            if (s == ";") {
                classifyStatement(stmt, i, klass);
                ++i;
                stmt = i;
                continue;
            }
            if (s == ":" && !file_scope && i > begin &&
                (t[i - 1].text == "public" ||
                 t[i - 1].text == "private" ||
                 t[i - 1].text == "protected")) {
                ++i;
                stmt = i; // access specifier resets the statement
                continue;
            }
            ++i;
        }
    }

    bool
    stmtStartsWith(std::size_t stmt, std::size_t at,
                   const char *kw) const
    {
        return stmt < at && toks()[stmt].text == kw;
    }

    /** Classify one declaration statement: a variable declaration
     *  records a VarDecl, a function declaration nothing. Statements
     *  the shape cannot be trusted on are dropped — the race-* rules
     *  only consume declarations whose annotations or storage class
     *  single them out. */
    void
    classifyStatement(std::size_t begin, std::size_t end,
                      const std::string &klass)
    {
        const auto &t = toks();
        while (begin < end &&
               (t[begin].text == "public" ||
                t[begin].text == "private" ||
                t[begin].text == "protected" ||
                t[begin].text == ":"))
            ++begin;
        if (begin >= end)
            return;
        static const char *const dropped[] = {
            "using",   "typedef", "friend",  "template",
            "static_assert",      "namespace", "class",  "struct",
            "enum",    "union",   "extern",  "return",  "if",
            "for",     "while",   "switch",  "do",      "case",
            "break",   "continue", "goto",   "throw",   "delete",
            "default", "operator",
        };
        const std::string &first = t[begin].text;
        if (std::any_of(std::begin(dropped), std::end(dropped),
                        [&](const char *k) { return first == k; }))
            return;

        std::vector<Annotation> anns;
        const std::size_t none = end;
        std::size_t first_ann = none, assign = none, paren = none,
                    brace = none;
        int angle = 0;
        for (std::size_t j = begin; j < end; ++j) {
            const std::string &s = t[j].text;
            if (t[j].kind == Tok::Ident && isAnnotationName(s)) {
                if (first_ann == none)
                    first_ann = j;
                j = collectAnnotation(j, anns);
                continue;
            }
            if (s == "<") {
                ++angle;
            } else if (s == ">") {
                if (angle > 0)
                    --angle;
            } else if (s == ">>") {
                angle = angle >= 2 ? angle - 2 : 0;
            } else if (angle == 0) {
                if (s == "(") {
                    if (paren == none && assign == none)
                        paren = j;
                    j = matchGroup(t, j);
                    continue;
                }
                if (s == "[" || s == "{") {
                    if (s == "{" && brace == none)
                        brace = j;
                    j = matchGroup(t, j);
                    continue;
                }
                if (s == "=" && assign == none) {
                    // `operator=` is part of a function name.
                    if (j > begin && t[j - 1].text == "operator")
                        continue;
                    assign = j;
                }
            }
        }

        if (paren != none && paren < assign)
            return; // function declaration

        VarDecl v;
        v.klass = klass;
        const std::size_t name_end =
            std::min(std::min(first_ann, assign), brace);
        v.name = declaratorName(t, begin, std::min(name_end, end));
        if (v.name.empty())
            return;
        std::size_t last_const = 0, last_star = 0;
        bool saw_const = false, saw_star = false;
        for (std::size_t j = begin; j < std::min(name_end, end);
             ++j) {
            const std::string &s = t[j].text;
            if (s == "static") {
                v.isStatic = true;
            } else if (s == "thread_local") {
                v.isThreadLocal = true;
            } else if (s == "constexpr" || s == "consteval") {
                v.isConst = true;
            } else if (s == "const") {
                saw_const = true;
                last_const = j;
            } else if (s == "*") {
                saw_star = true;
                last_star = j;
            }
            if (t[j].kind == Tok::Ident && s != v.name &&
                !isAnnotationName(s)) {
                if (!v.typeText.empty())
                    v.typeText += ' ';
                v.typeText += s;
            }
        }
        // `const char *p` is a mutable pointer; `char *const p` and
        // plain `const T v` are immutable: the const that counts is
        // the one right of the last '*'.
        if (saw_const && (!saw_star || last_const > last_star))
            v.isConst = true;
        v.line = t[begin].line;
        v.annotations = std::move(anns);
        const bool file_scope = klass.empty();
        // File scope only models the declarations the rules consume:
        // static / thread_local storage, annotated names, and
        // initialized definitions (anonymous-namespace globals).
        if (file_scope && !v.isStatic && !v.isThreadLocal &&
            v.annotations.empty() && assign == none)
            return;
        model_.varDecls.push_back(std::move(v));
    }

    /** First token of the declaration containing the name at @p i. */
    std::size_t
    headerStart(std::size_t i) const
    {
        const auto &t = toks();
        std::size_t j = i;
        while (j >= 2 && t[j - 1].text == "::" &&
               t[j - 2].kind == Tok::Ident)
            j -= 2;
        while (j > 0) {
            const std::string &s = t[j - 1].text;
            if (s == ";" || s == "}" || s == "{" || s == ":" ||
                s == ")" || s == ",")
                break;
            --j;
        }
        return j;
    }

    bool
    returnIsSecret(std::size_t begin, std::size_t name_idx) const
    {
        const auto &t = toks();
        for (std::size_t j = begin; j < name_idx; ++j)
            if (t[j].text == secretMarker)
                return true;
        return false;
    }

    void
    parseParams(std::size_t open, std::size_t close, FunctionDef &def)
    {
        const auto &t = toks();
        std::size_t begin = open + 1;
        int paren = 0, angle = 0, brace = 0;
        for (std::size_t j = begin; j <= close; ++j) {
            const std::string &s = t[j].text;
            const bool at_end = j == close;
            if (!at_end) {
                if (s == "(" || s == "[")
                    ++paren;
                else if (s == ")" || s == "]")
                    --paren;
                else if (s == "{")
                    ++brace;
                else if (s == "}")
                    --brace;
                else if (s == "<")
                    ++angle;
                else if (s == ">" && angle > 0)
                    --angle;
                else if (s == ">>" && angle > 0)
                    angle = angle >= 2 ? angle - 2 : 0;
            }
            if (at_end ||
                (s == "," && paren == 0 && angle == 0 && brace == 0)) {
                if (j > begin)
                    addParam(begin, j, def);
                begin = j + 1;
            }
        }
    }

    void
    addParam(std::size_t begin, std::size_t end, FunctionDef &def)
    {
        const auto &t = toks();
        Param param;
        std::size_t name_end = end;
        for (std::size_t j = begin; j < end; ++j) {
            if (t[j].text == secretMarker)
                param.secret = true;
            if (t[j].text == "=") {
                name_end = j;
                break;
            }
            if (t[j].text == "...")
                return; // variadic marker, not a parameter
        }
        if (end - begin == 1 && t[begin].text == "void")
            return;
        param.name = declaratorName(t, begin, name_end);
        // An unnamed parameter whose "name" is really the type: the
        // final token being '&' or '*' means no declarator followed.
        if (name_end > begin) {
            const std::string &tail = t[name_end - 1].text;
            if (tail == "&" || tail == "*" || tail == "&&")
                param.name.clear();
        }
        def.params.push_back(std::move(param));
    }

    void
    scanDeclarations()
    {
        const auto &t = toks();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].text != secretMarker || insideFunction(i))
                continue;
            // Scan the declarator; a '(' before any terminator means
            // this annotates a function declaration's return type.
            // Template arguments (commas, parens inside <>) are part
            // of the type, not terminators.
            std::size_t j = i + 1;
            bool is_function = false;
            std::string type_text;
            int angle = 0;
            while (j < t.size()) {
                const std::string &s = t[j].text;
                if (t[j].kind == Tok::Ident) {
                    if (!type_text.empty())
                        type_text += ' ';
                    type_text += s;
                }
                if (s == "<") {
                    ++angle;
                } else if (s == ">") {
                    if (angle > 0)
                        --angle;
                } else if (s == ">>") {
                    angle = angle >= 2 ? angle - 2 : 0;
                } else if (angle == 0) {
                    if (s == ";" || s == "=" || s == "{" || s == "," ||
                        s == ")")
                        break;
                    if (s == "(") {
                        is_function = true;
                        break;
                    }
                }
                ++j;
            }
            if (j >= t.size())
                continue;
            if (t[j].text == "," || t[j].text == ")") {
                recordDeclParam(i, j);
                continue;
            }
            if (is_function) {
                const std::string fn = declaratorName(t, i + 1, j);
                if (!fn.empty())
                    model_.secretReturnDecls.insert(fn);
                continue;
            }
            SecretDecl decl;
            decl.name = declaratorName(t, i + 1, j);
            decl.typeText = type_text;
            decl.line = t[i].line;
            if (!decl.name.empty())
                model_.secretDecls.push_back(std::move(decl));
        }
    }

    /** MORPH_SECRET at @p marker annotates a parameter of a function
     *  declaration (the declarator scan hit ',' or ')'): find the
     *  enclosing call parens, the function name, and the zero-based
     *  parameter index of the annotation. */
    void
    recordDeclParam(std::size_t marker, std::size_t name_end)
    {
        const auto &t = toks();
        // Walk back to the unmatched '(' that opens the parameter list.
        std::size_t open = marker;
        int depth = 0;
        while (open > 0) {
            --open;
            const std::string &s = t[open].text;
            if (s == ")" || s == "]" || s == "}") {
                ++depth;
            } else if (s == "(" || s == "[" || s == "{") {
                if (depth == 0) {
                    if (s != "(")
                        return;
                    break;
                }
                --depth;
            } else if (s == ";") {
                return;
            }
        }
        if (open == 0 || t[open - 1].kind != Tok::Ident)
            return;
        const std::string fname = t[open - 1].text;
        // Parameter index: commas at depth 0 before the marker.
        std::size_t index = 0;
        depth = 0;
        for (std::size_t k = open + 1; k < marker; ++k) {
            const std::string &s = t[k].text;
            if (s == "(" || s == "[" || s == "{" || s == "<")
                ++depth;
            else if (s == ")" || s == "]" || s == "}" ||
                     (s == ">" && depth > 0))
                --depth;
            else if (s == "," && depth == 0)
                ++index;
        }
        (void)name_end;
        model_.secretParamDecls[fname].insert(index);
    }

    void
    scanUnorderedNames()
    {
        const auto &t = toks();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].text != "unordered_map" &&
                t[i].text != "unordered_set")
                continue;
            // Back up to the start of the enclosing declaration...
            std::size_t begin = i;
            while (begin > 0) {
                const std::string &s = t[begin - 1].text;
                if (s == ";" || s == "{" || s == "}" || s == "(" ||
                    s == "," || s == ":")
                    break;
                --begin;
            }
            // ...then forward across the template arguments to the
            // declarator, tracking angle depth (">>" closes two).
            int angle = 0;
            std::size_t j = begin;
            for (; j < t.size(); ++j) {
                const std::string &s = t[j].text;
                if (s == "<") {
                    ++angle;
                } else if (s == ">") {
                    if (angle > 0)
                        --angle;
                } else if (s == ">>") {
                    angle = angle >= 2 ? angle - 2 : 0;
                } else if (angle == 0 &&
                           (s == ";" || s == "=" || s == "{" ||
                            s == "," || s == ")" || s == "(")) {
                    break;
                }
            }
            const std::string name = declaratorName(t, begin, j);
            if (!name.empty())
                model_.unorderedNames.insert(name);
        }
    }

    void
    scanFileWaivers()
    {
        for (const auto &entry : src_.comments) {
            const std::string &text = entry.second;
            std::size_t pos = 0;
            while ((pos = text.find("allow-file(", pos)) !=
                   std::string::npos) {
                const std::size_t open = pos + 11;
                const std::size_t close = text.find(')', open);
                if (close == std::string::npos)
                    break;
                model_.fileWaivers.insert(
                    text.substr(open, close - open));
                pos = close;
            }
        }
    }

    const LexedSource &src_;
    SourceModel model_;
};

} // namespace

bool
SourceModel::waived(const std::string &rule, unsigned line) const
{
    if (fileWaivers.count(rule) != 0)
        return true;
    const std::string needle = "allow(" + rule + ")";
    if (src->commentOn(line).find(needle) != std::string::npos)
        return true;
    return line > 1 &&
           src->commentOn(line - 1).find(needle) != std::string::npos;
}

SourceModel
buildModel(const LexedSource &src)
{
    return ModelBuilder(src).run();
}

std::size_t
matchGroup(const std::vector<Token> &tokens, std::size_t open)
{
    const std::string &o = tokens[open].text;
    const char *closer = o == "(" ? ")" : o == "{" ? "}" : "]";
    unsigned depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == o)
            ++depth;
        else if (tokens[i].text == closer && --depth == 0)
            return i;
    }
    return tokens.size();
}

} // namespace morph::analysis
