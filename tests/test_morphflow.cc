/**
 * @file
 * Unit tests for the morphflow analysis library (src/analysis): the
 * tokenizer, the per-file structural model, the interprocedural
 * secret-flow / determinism rules, the worker-isolation rules
 * (race-worker-escape, race-naked-static; suite RaceAnalyzer) and the
 * lex cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/flow_analyzer.hh"
#include "analysis/lexer.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{
namespace
{

AnalysisResult
analyzeOne(const std::string &text, bool determinism_scope = true)
{
    std::vector<SourceText> sources(1);
    sources[0].path = "test.cc";
    sources[0].text = text;
    sources[0].determinismScope = determinism_scope;
    return analyzeSources(sources);
}

/** One file in the race-naked-static scope (src/{common,sim,secmem}
 *  or an explicit morphflow argument) unless @p static_scope is
 *  false. */
AnalysisResult
analyzeRaceRules(const std::string &text, bool static_scope = true)
{
    std::vector<SourceText> sources(1);
    sources[0].path = "test.cc";
    sources[0].text = text;
    sources[0].staticScope = static_scope;
    return analyzeSources(sources);
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

// ---- lexer ----------------------------------------------------------

TEST(FlowLexer, TokensAndLines)
{
    const LexedSource src = lex("x.cc", "int a = 42;\nreturn a->b;\n");
    ASSERT_GE(src.tokens.size(), 9u);
    EXPECT_EQ(src.tokens[0].text, "int");
    EXPECT_EQ(src.tokens[0].kind, Tok::Ident);
    EXPECT_EQ(src.tokens[2].text, "=");
    EXPECT_EQ(src.tokens[3].text, "42");
    EXPECT_EQ(src.tokens[3].kind, Tok::Number);
    EXPECT_EQ(src.tokens[3].line, 1u);
    // Multi-character operators stay whole.
    const auto arrow = std::find_if(
        src.tokens.begin(), src.tokens.end(),
        [](const Token &t) { return t.text == "->"; });
    ASSERT_NE(arrow, src.tokens.end());
    EXPECT_EQ(arrow->line, 2u);
}

TEST(FlowLexer, SkipsPreprocessorDirectives)
{
    const LexedSource src =
        lex("x.cc", "#define MORPH_SECRET attr\nint a;\n");
    for (const Token &t : src.tokens)
        EXPECT_NE(t.text, "MORPH_SECRET");
}

TEST(FlowLexer, RecordsCommentsPerLine)
{
    const LexedSource src = lex(
        "x.cc", "int a; // morphflow: allow(secret-branch): why\n");
    EXPECT_NE(src.commentOn(1).find("allow(secret-branch)"),
              std::string::npos);
    EXPECT_TRUE(src.commentOn(2).empty());
}

TEST(FlowLexer, StringsAndCharLiteralsAreOpaque)
{
    const LexedSource src =
        lex("x.cc", "const char *s = \"rand( if (x)\"; char c = ';';\n");
    // Nothing inside the literals leaks out as punctuation or idents.
    for (const Token &t : src.tokens) {
        if (t.kind == Tok::String)
            EXPECT_NE(t.text.find("rand("), std::string::npos);
        else
            EXPECT_NE(t.text, "rand");
    }
}

// ---- source model ---------------------------------------------------

TEST(FlowModel, ExtractsFunctionWithSecretParam)
{
    const LexedSource src = lex("x.cc",
                                "int\n"
                                "check(MORPH_SECRET const int key, "
                                "int pub)\n"
                                "{\n"
                                "    return pub;\n"
                                "}\n");
    const SourceModel model = buildModel(src);
    ASSERT_EQ(model.functions.size(), 1u);
    const FunctionDef &fn = model.functions[0];
    EXPECT_EQ(fn.name, "check");
    ASSERT_EQ(fn.params.size(), 2u);
    EXPECT_EQ(fn.params[0].name, "key");
    EXPECT_TRUE(fn.params[0].secret);
    EXPECT_EQ(fn.params[1].name, "pub");
    EXPECT_FALSE(fn.params[1].secret);
    EXPECT_LT(fn.bodyBegin, fn.bodyEnd);
}

TEST(FlowModel, QualifiedNamesAndMemberSecrets)
{
    const LexedSource src =
        lex("x.cc",
            "struct Engine { MORPH_SECRET unsigned char key_[16]; };\n"
            "void Engine::run() { }\n");
    const SourceModel model = buildModel(src);
    ASSERT_EQ(model.secretDecls.size(), 1u);
    EXPECT_EQ(model.secretDecls[0].name, "key_");
    ASSERT_EQ(model.functions.size(), 1u);
    EXPECT_EQ(model.functions[0].name, "run");
}

TEST(FlowModel, HeaderDeclarationAnnotations)
{
    const LexedSource src = lex(
        "x.hh",
        "MORPH_SECRET Pad pad(unsigned line) const;\n"
        "unsigned long mix(const void *p, MORPH_SECRET const Key &k);\n");
    const SourceModel model = buildModel(src);
    EXPECT_EQ(model.secretReturnDecls.count("pad"), 1u);
    const auto it = model.secretParamDecls.find("mix");
    ASSERT_NE(it, model.secretParamDecls.end());
    EXPECT_EQ(it->second.count(1), 1u);
}

TEST(FlowModel, UnorderedNamesAndWaivers)
{
    const LexedSource src =
        lex("x.cc",
            "// morphflow: allow-file(nondet-call): fixture\n"
            "std::unordered_map<int, int> table;\n"
            "int a; // morphflow: allow(secret-branch): line waiver\n");
    const SourceModel model = buildModel(src);
    EXPECT_EQ(model.unorderedNames.count("table"), 1u);
    EXPECT_TRUE(model.waived("nondet-call", 99)); // file-wide
    EXPECT_TRUE(model.waived("secret-branch", 3));
    EXPECT_TRUE(model.waived("secret-branch", 4)); // line above
    EXPECT_FALSE(model.waived("secret-branch", 5));
    EXPECT_FALSE(model.waived("secret-subscript", 3));
}

TEST(FlowModel, MatchGroupBalancesNesting)
{
    const LexedSource src = lex("x.cc", "f(a, g(b, c), d[e]);");
    // Token 1 is the '(' after f.
    ASSERT_GT(src.tokens.size(), 2u);
    ASSERT_EQ(src.tokens[1].text, "(");
    const std::size_t close = matchGroup(src.tokens, 1);
    ASSERT_LT(close, src.tokens.size());
    EXPECT_EQ(src.tokens[close].text, ")");
    EXPECT_EQ(src.tokens[close + 1].text, ";");
}

// ---- secret-flow rules ----------------------------------------------

TEST(FlowRules, SecretBranchOnAnnotatedParam)
{
    const AnalysisResult r = analyzeOne(
        "bool eq(MORPH_SECRET const unsigned long key, unsigned long g)\n"
        "{\n"
        "    if (key == g)\n"
        "        return true;\n"
        "    return false;\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "secret-branch"));
}

TEST(FlowRules, SecretTaintFlowsThroughAssignment)
{
    const AnalysisResult r = analyzeOne(
        "int f(MORPH_SECRET const int key)\n"
        "{\n"
        "    int derived = key * 3;\n"
        "    int copy = derived;\n"
        "    return table[copy];\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "secret-subscript"));
}

TEST(FlowRules, SecretLogCall)
{
    const AnalysisResult r =
        analyzeOne("void f(MORPH_SECRET const unsigned long key)\n"
                   "{\n"
                   "    printf(\"%lu\\n\", key);\n"
                   "}\n");
    EXPECT_TRUE(hasRule(r.findings, "secret-log"));
}

TEST(FlowRules, InterproceduralCallArgTaint)
{
    // Secret flows into helper()'s parameter, which then branches.
    const AnalysisResult r = analyzeOne(
        "int helper(int v)\n"
        "{\n"
        "    if (v)\n"
        "        return 1;\n"
        "    return 0;\n"
        "}\n"
        "int f(MORPH_SECRET const int key)\n"
        "{\n"
        "    return helper(key);\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "secret-branch"));
}

TEST(FlowRules, DeclassifyStopsTaint)
{
    const AnalysisResult r = analyzeOne(
        "unsigned long tag(MORPH_SECRET const unsigned long key)\n"
        "{\n"
        "    return MORPH_DECLASSIFY(key * 31);\n"
        "}\n"
        "void f()\n"
        "{\n"
        "    unsigned long t = tag(5);\n"
        "    if (t)\n"
        "        printf(\"%lu\\n\", t);\n"
        "}\n");
    EXPECT_FALSE(hasRule(r.findings, "secret-branch"));
    EXPECT_FALSE(hasRule(r.findings, "secret-log"));
}

TEST(FlowRules, WipeRuleAndSecureWipeSink)
{
    const AnalysisResult leak =
        analyzeOne("void f()\n"
                   "{\n"
                   "    MORPH_SECRET unsigned char key[16];\n"
                   "    use(key);\n"
                   "}\n");
    EXPECT_TRUE(hasRule(leak.findings, "secret-wipe"));

    const AnalysisResult wiped =
        analyzeOne("void f()\n"
                   "{\n"
                   "    MORPH_SECRET unsigned char key[16];\n"
                   "    use(key);\n"
                   "    secureWipe(key, sizeof(key));\n"
                   "}\n");
    EXPECT_FALSE(hasRule(wiped.findings, "secret-wipe"));
}

TEST(FlowRules, SelfWipingTypesNeedNoWipe)
{
    const AnalysisResult r =
        analyzeOne("void f()\n"
                   "{\n"
                   "    MORPH_SECRET SecretArray<unsigned char, 16> k;\n"
                   "    use(k);\n"
                   "}\n");
    EXPECT_FALSE(hasRule(r.findings, "secret-wipe"));
}

TEST(FlowRules, MemberWipeRule)
{
    const AnalysisResult r = analyzeOne(
        "struct S { MORPH_SECRET unsigned char raw[16]; };\n");
    EXPECT_TRUE(hasRule(r.findings, "secret-member-wipe"));
}

TEST(FlowRules, WaiverMovesFindingToWaivedList)
{
    const AnalysisResult r = analyzeOne(
        "int f(MORPH_SECRET const int key)\n"
        "{\n"
        "    // morphflow: allow(secret-branch): test waiver\n"
        "    if (key)\n"
        "        return 1;\n"
        "    return 0;\n"
        "}\n");
    EXPECT_FALSE(hasRule(r.findings, "secret-branch"));
    EXPECT_TRUE(hasRule(r.waived, "secret-branch"));
}

TEST(FlowRules, SameNameHelpersDoNotShareTaint)
{
    // Two files define a helper with the same name; taint on one
    // file's helper must not leak into the other's.
    std::vector<SourceText> sources(2);
    sources[0].path = "a.cc";
    sources[0].text = "static int mixin(int v)\n"
                      "{\n"
                      "    return v * 2;\n"
                      "}\n"
                      "int fa(MORPH_SECRET const int key)\n"
                      "{\n"
                      "    return mixin(key);\n"
                      "}\n";
    sources[1].path = "b.cc";
    sources[1].text = "static int mixin(int v)\n"
                      "{\n"
                      "    if (v)\n" // public here, secret in a.cc
                      "        return 1;\n"
                      "    return 0;\n"
                      "}\n"
                      "int fb(int pub)\n"
                      "{\n"
                      "    return mixin(pub);\n"
                      "}\n";
    const AnalysisResult r = analyzeSources(sources);
    EXPECT_FALSE(hasRule(r.findings, "secret-branch"));
}

// ---- determinism rules ----------------------------------------------

TEST(FlowRules, NondetCallFlaggedInScope)
{
    const AnalysisResult r = analyzeOne("int f() { return rand(); }\n");
    EXPECT_TRUE(hasRule(r.findings, "nondet-call"));
}

TEST(FlowRules, NondetCallIgnoredOutOfScope)
{
    const AnalysisResult r = analyzeOne("int f() { return rand(); }\n",
                                        /*determinism_scope=*/false);
    EXPECT_FALSE(hasRule(r.findings, "nondet-call"));
}

TEST(FlowRules, MemberNamedClockIsNotNondet)
{
    const AnalysisResult r =
        analyzeOne("struct C {\n"
                   "    Cycle clock() const { return clock_; }\n"
                   "    Cycle clock_ = 0;\n"
                   "};\n"
                   "Cycle now(const C &c) { return c.clock(); }\n");
    EXPECT_FALSE(hasRule(r.findings, "nondet-call"));
}

TEST(FlowRules, NondetIterOverUnorderedContainer)
{
    const AnalysisResult r = analyzeOne(
        "unsigned long f(const std::unordered_map<int, int> &m)\n"
        "{\n"
        "    unsigned long sum = 0;\n"
        "    for (const auto &kv : m)\n"
        "        sum += kv.second;\n"
        "    return sum;\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "nondet-iter"));
}

TEST(FlowRules, OrderedIterationIsClean)
{
    const AnalysisResult r =
        analyzeOne("unsigned long f(const std::map<int, int> &m)\n"
                   "{\n"
                   "    unsigned long sum = 0;\n"
                   "    for (const auto &kv : m)\n"
                   "        sum += kv.second;\n"
                   "    return sum;\n"
                   "}\n");
    EXPECT_FALSE(hasRule(r.findings, "nondet-iter"));
}

TEST(FlowRules, FindingsAreSortedAndDeduplicated)
{
    const AnalysisResult r = analyzeOne(
        "int f(MORPH_SECRET const int key)\n"
        "{\n"
        "    if (key)\n"
        "        return rand();\n"
        "    return table[key];\n"
        "}\n");
    ASSERT_GE(r.findings.size(), 2u);
    for (std::size_t i = 1; i < r.findings.size(); ++i) {
        const Finding &a = r.findings[i - 1];
        const Finding &b = r.findings[i];
        EXPECT_LE(a.line, b.line);
        EXPECT_FALSE(a.line == b.line && a.rule == b.rule &&
                     a.symbol == b.symbol);
    }
}

// ---- race-worker-escape ---------------------------------------------

TEST(RaceAnalyzer, WorkerMutationOfCapturedStateFires)
{
    const AnalysisResult r = analyzeRaceRules(
        "void tally(RunPool &pool, std::size_t n) {\n"
        "    double sum = 0.0;\n"
        "    pool.forEach(n, [&](std::size_t i) { sum += i; });\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "race-worker-escape"));
}

TEST(RaceAnalyzer, IndexAddressedStoreIsClean)
{
    const AnalysisResult r = analyzeRaceRules(
        "void fill(RunPool &pool, std::size_t n,\n"
        "          std::vector<double> &out) {\n"
        "    pool.forEach(n, [&](std::size_t i) { out[i] = 1.0; });\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, MutationUnderWorkerOwnLockIsClean)
{
    const AnalysisResult r = analyzeRaceRules(
        "void tally(RunPool &pool, std::size_t n, Mutex &mu) {\n"
        "    double sum = 0.0;\n"
        "    pool.forEach(n, [&](std::size_t i) {\n"
        "        LockGuard g(mu);\n"
        "        sum += i;\n"
        "    });\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, WorkerLocalsAreClean)
{
    const AnalysisResult r = analyzeRaceRules(
        "void walk(RunPool &pool, std::size_t n) {\n"
        "    pool.forEach(n, [&](std::size_t i) {\n"
        "        double acc = 0.0;\n"
        "        for (std::size_t j = 0; j < i; ++j)\n"
        "            acc += j;\n"
        "    });\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, LambdaBoundToAVariableIsScanned)
{
    const AnalysisResult r = analyzeRaceRules(
        "void tally(RunPool &pool, std::size_t n) {\n"
        "    unsigned done = 0;\n"
        "    auto task = [&](std::size_t i) { ++done; };\n"
        "    pool.forEach(n, task);\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "race-worker-escape"));
}

// ---- race-naked-static ----------------------------------------------

TEST(RaceAnalyzer, NakedStaticFires)
{
    const AnalysisResult r =
        analyzeRaceRules("static unsigned g_hits = 0;\n");
    EXPECT_TRUE(hasRule(r.findings, "race-naked-static"));
}

TEST(RaceAnalyzer, AnnotatedAndImmutableStaticsAreClean)
{
    const AnalysisResult r = analyzeRaceRules(
        "static const unsigned kTableSize = 64;\n"
        "static std::atomic<unsigned> g_refs{0};\n"
        "thread_local unsigned t_depth = 0;\n"
        "static unsigned g_polls MORPH_GUARDED_BY(g_mu) = 0;\n"
        "static Mutex g_mu;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, FunctionLocalStaticFires)
{
    const AnalysisResult r = analyzeRaceRules(
        "unsigned next() { static unsigned c = 0; return ++c; }\n");
    EXPECT_TRUE(hasRule(r.findings, "race-naked-static"));
}

TEST(RaceAnalyzer, StaticScopeFlagGatesTheRule)
{
    const AnalysisResult r =
        analyzeRaceRules("static unsigned g_hits = 0;\n",
                         /*static_scope=*/false);
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, WaiverSuppressesButReports)
{
    const AnalysisResult r = analyzeRaceRules(
        "// morphflow: allow(race-naked-static): test fixture\n"
        "static unsigned g_hits = 0;\n");
    EXPECT_TRUE(r.findings.empty());
    ASSERT_EQ(r.waived.size(), 1u);
    EXPECT_EQ(r.waived[0].rule, "race-naked-static");
}

} // namespace
} // namespace morph::analysis
