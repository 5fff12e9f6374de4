/**
 * @file
 * Unit tests for the morphrace concurrency analysis (src/analysis):
 * every rule family firing and staying quiet, waiver handling, the
 * batch-wide lock-order graph, and the lex cache the batch loaders
 * share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/lex_cache.hh"
#include "analysis/race_analyzer.hh"

namespace morph::analysis
{
namespace
{

AnalysisResult
analyzeOne(const std::string &text, bool static_scope = true)
{
    std::vector<SourceText> sources(1);
    sources[0].path = "test.cc";
    sources[0].text = text;
    sources[0].staticScope = static_scope;
    return analyzeRaces(sources);
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

// ---- race-unguarded ---------------------------------------------------

TEST(RaceAnalyzer, UnguardedAccessFires)
{
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void bump() { ++hits_; }\n"
        "    Mutex mu_;\n"
        "    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-unguarded"));
}

TEST(RaceAnalyzer, GuardedAccessUnderLockIsClean)
{
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void bump() { LockGuard g(mu_); ++hits_; }\n"
        "    Mutex mu_;\n"
        "    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;\n"
        "};\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, GuardScopeEndsAtBrace)
{
    // The guard lives in the inner block; the access after it is bare.
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void bump() { { LockGuard g(mu_); } ++hits_; }\n"
        "    Mutex mu_;\n"
        "    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-unguarded"));
}

TEST(RaceAnalyzer, ExplicitUnlockDropsTheLock)
{
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void bump() {\n"
        "        UniqueLock g(mu_);\n"
        "        g.unlock();\n"
        "        ++hits_;\n"
        "    }\n"
        "    Mutex mu_;\n"
        "    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-unguarded"));
}

TEST(RaceAnalyzer, GuardBindsToItsOwnClass)
{
    // Two classes share a member name; only Pool guards it. Batch's
    // bare accesses are clean, inline or out of line.
    const std::string classes =
        "class Pool {\n"
        "    void submit() { LockGuard g(lock_); ++pending_; }\n"
        "    Mutex lock_;\n"
        "    unsigned pending_ MORPH_GUARDED_BY(lock_) = 0;\n"
        "};\n"
        "class Batch {\n"
        "    void add() { ++pending_; }\n"
        "    void drop();\n"
        "    unsigned pending_ = 0;\n"
        "};\n"
        "void Batch::drop() { pending_ = 0; }\n";
    EXPECT_TRUE(analyzeOne(classes).findings.empty());

    // Pool's own unlocked access still fires, and so does reaching
    // the guarded name through an object from outside any class.
    const AnalysisResult bare = analyzeOne(
        classes + "void Pool::reset() { pending_ = 0; }\n");
    ASSERT_EQ(bare.findings.size(), 1u);
    EXPECT_EQ(bare.findings[0].rule, "race-unguarded");
    EXPECT_TRUE(hasRule(
        analyzeOne(classes + "void f(Pool &p) { p.pending_ = 0; }\n")
            .findings,
        "race-unguarded"));
}

// ---- race-requires / race-exclude ---------------------------------------

TEST(RaceAnalyzer, RequiresBindsAcrossFiles)
{
    // Annotation on the header declaration, violation in the other
    // file: the contract is batch-wide by name.
    std::vector<SourceText> sources(2);
    sources[0].path = "c.hh";
    sources[0].text = "class C {\n"
                      "    void flushLocked() MORPH_REQUIRES(mu_);\n"
                      "    Mutex mu_;\n"
                      "};\n";
    sources[1].path = "c.cc";
    sources[1].text = "void C::tick() { flushLocked(); }\n";
    const AnalysisResult r = analyzeRaces(sources);
    ASSERT_TRUE(hasRule(r.findings, "race-requires"));
    EXPECT_EQ(r.findings[0].file, "c.cc");
}

TEST(RaceAnalyzer, RequiresSeedsTheCalleeBody)
{
    // Inside a MORPH_REQUIRES function the lock counts as held.
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void flushLocked() MORPH_REQUIRES(mu_) { hits_ = 0; }\n"
        "    Mutex mu_;\n"
        "    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;\n"
        "};\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, ExcludeFiresUnderTheLock)
{
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void drain() MORPH_EXCLUDES(mu_);\n"
        "    void pump() { LockGuard g(mu_); drain(); }\n"
        "    Mutex mu_;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-exclude"));
}

TEST(RaceAnalyzer, ExcludeIsCleanWithoutTheLock)
{
    const AnalysisResult r = analyzeOne(
        "class C {\n"
        "    void drain() MORPH_EXCLUDES(mu_);\n"
        "    void pump() { drain(); }\n"
        "    Mutex mu_;\n"
        "};\n");
    EXPECT_TRUE(r.findings.empty());
}

// ---- race-lock-order -----------------------------------------------------

TEST(RaceAnalyzer, OppositeOrdersFormACycle)
{
    const AnalysisResult r = analyzeOne(
        "class T {\n"
        "    void a() { LockGuard x(alpha_); LockGuard y(beta_); }\n"
        "    void b() { LockGuard y(beta_); LockGuard x(alpha_); }\n"
        "    Mutex alpha_;\n"
        "    Mutex beta_;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-lock-order"));
}

TEST(RaceAnalyzer, ConsistentOrderIsClean)
{
    const AnalysisResult r = analyzeOne(
        "class T {\n"
        "    void a() { LockGuard x(alpha_); LockGuard y(beta_); }\n"
        "    void b() { LockGuard x(alpha_); LockGuard y(beta_); }\n"
        "    Mutex alpha_;\n"
        "    Mutex beta_;\n"
        "};\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, ReacquiringAHeldMutexFires)
{
    const AnalysisResult r = analyzeOne(
        "class T {\n"
        "    void a() { LockGuard x(mu_); LockGuard y(mu_); }\n"
        "    Mutex mu_;\n"
        "};\n");
    EXPECT_TRUE(hasRule(r.findings, "race-lock-order"));
}

// ---- race-worker-escape ----------------------------------------------------

TEST(RaceAnalyzer, WorkerMutationOfCapturedStateFires)
{
    const AnalysisResult r = analyzeOne(
        "void tally(RunPool &pool, std::size_t n) {\n"
        "    double sum = 0.0;\n"
        "    pool.forEach(n, [&](std::size_t i) { sum += i; });\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "race-worker-escape"));
}

TEST(RaceAnalyzer, IndexAddressedStoreIsClean)
{
    const AnalysisResult r = analyzeOne(
        "void fill(RunPool &pool, std::size_t n,\n"
        "          std::vector<double> &out) {\n"
        "    pool.forEach(n, [&](std::size_t i) { out[i] = 1.0; });\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, MutationUnderWorkerOwnLockIsClean)
{
    const AnalysisResult r = analyzeOne(
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
    const AnalysisResult r = analyzeOne(
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
    const AnalysisResult r = analyzeOne(
        "void tally(RunPool &pool, std::size_t n) {\n"
        "    unsigned done = 0;\n"
        "    auto task = [&](std::size_t i) { ++done; };\n"
        "    pool.forEach(n, task);\n"
        "}\n");
    EXPECT_TRUE(hasRule(r.findings, "race-worker-escape"));
}

// ---- race-naked-static -------------------------------------------------------

TEST(RaceAnalyzer, NakedStaticFires)
{
    const AnalysisResult r =
        analyzeOne("static unsigned g_hits = 0;\n");
    EXPECT_TRUE(hasRule(r.findings, "race-naked-static"));
}

TEST(RaceAnalyzer, AnnotatedAndImmutableStaticsAreClean)
{
    const AnalysisResult r = analyzeOne(
        "static const unsigned kTableSize = 64;\n"
        "static std::atomic<unsigned> g_refs{0};\n"
        "thread_local unsigned t_depth = 0;\n"
        "static unsigned g_polls MORPH_GUARDED_BY(g_mu) = 0;\n"
        "static Mutex g_mu;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RaceAnalyzer, FunctionLocalStaticFires)
{
    const AnalysisResult r = analyzeOne(
        "unsigned next() { static unsigned c = 0; return ++c; }\n");
    EXPECT_TRUE(hasRule(r.findings, "race-naked-static"));
}

TEST(RaceAnalyzer, StaticScopeFlagGatesTheRule)
{
    const AnalysisResult r =
        analyzeOne("static unsigned g_hits = 0;\n",
                   /*static_scope=*/false);
    EXPECT_TRUE(r.findings.empty());
}

// ---- waivers -------------------------------------------------------------------

TEST(RaceAnalyzer, WaiverSuppressesButReports)
{
    const AnalysisResult r = analyzeOne(
        "// morphrace: allow(race-naked-static): test fixture\n"
        "static unsigned g_hits = 0;\n");
    EXPECT_TRUE(r.findings.empty());
    ASSERT_EQ(r.waived.size(), 1u);
    EXPECT_EQ(r.waived[0].rule, "race-naked-static");
}

// ---- lex cache ------------------------------------------------------------------

TEST(LexCacheTest, SecondAnalysisHitsTheCache)
{
    std::vector<SourceText> sources(1);
    sources[0].path = "cached.cc";
    sources[0].text = "static unsigned g_hits = 0;\n";
    sources[0].staticScope = true;
    LexCache cache;
    analyzeRaces(sources, &cache);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    analyzeRaces(sources, &cache);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(LexCacheTest, DuplicateBatchEntriesLexOnce)
{
    std::vector<SourceText> sources(2);
    sources[0].path = "dup.cc";
    sources[0].text = "int x = 1;\n";
    sources[1] = sources[0];
    LexCache cache;
    analyzeRaces(sources, &cache);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

} // namespace
} // namespace morph::analysis
