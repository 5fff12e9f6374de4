/**
 * @file
 * Unit tests for the structural source model (src/analysis): the
 * parser-shape edge cases morphflow leans on — raw strings,
 * multi-line macro invocations, nested classes, operator overloads —
 * plus the member / annotation extraction its race-* rules read.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/lexer.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{
namespace
{

SourceModel
modelOf(const LexedSource &src)
{
    return buildModel(src);
}

const FunctionDef *
findFn(const SourceModel &m, const std::string &name)
{
    for (const FunctionDef &f : m.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

const VarDecl *
findVar(const SourceModel &m, const std::string &name)
{
    for (const VarDecl &v : m.varDecls)
        if (v.name == name)
            return &v;
    return nullptr;
}

// ---- raw strings ----------------------------------------------------

TEST(SourceModel, RawStringBracesDoNotBreakBodies)
{
    // The brace and quote inside the raw string must not derail the
    // function-body matcher.
    const LexedSource src = lex("t.cc", R"code(
int before() { return 1; }
const char *blob() { return R"(unbalanced { " brace)"; }
int after() { return 2; }
)code");
    const SourceModel m = modelOf(src);
    EXPECT_NE(findFn(m, "before"), nullptr);
    EXPECT_NE(findFn(m, "blob"), nullptr);
    EXPECT_NE(findFn(m, "after"), nullptr);
}

TEST(SourceModel, RawStringIsOneToken)
{
    const LexedSource src =
        lex("t.cc", "auto s = R\"(a } b ( c)\";\n");
    const auto str = std::find_if(
        src.tokens.begin(), src.tokens.end(),
        [](const Token &t) { return t.kind == Tok::String; });
    ASSERT_NE(str, src.tokens.end());
}

// ---- multi-line macro invocations ------------------------------------

TEST(SourceModel, MultiLineAnnotationInvocation)
{
    // An annotation argument list spanning lines still parses.
    const LexedSource src = lex("t.cc", "class C {\n"
                                        "    int v\n"
                                        "        MORPH_GUARDED_BY(\n"
                                        "            mu_);\n"
                                        "    Mutex mu_;\n"
                                        "};\n");
    const SourceModel m = modelOf(src);
    const VarDecl *v = findVar(m, "v");
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->annotations.size(), 1u);
    EXPECT_EQ(v->annotations[0].macro, "MORPH_GUARDED_BY");
}

// ---- nested classes --------------------------------------------------

TEST(SourceModel, NestedClassesQualifyMembers)
{
    const LexedSource src = lex("t.cc", "class Outer {\n"
                                        "    struct Inner {\n"
                                        "        int depth;\n"
                                        "    };\n"
                                        "    int width;\n"
                                        "};\n");
    const SourceModel m = modelOf(src);
    ASSERT_EQ(m.classes.size(), 2u);
    EXPECT_EQ(m.classes[0].name, "Outer");
    EXPECT_EQ(m.classes[1].name, "Outer::Inner");
    const VarDecl *depth = findVar(m, "depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->klass, "Outer::Inner");
    const VarDecl *width = findVar(m, "width");
    ASSERT_NE(width, nullptr);
    EXPECT_EQ(width->klass, "Outer");
}

TEST(SourceModel, EnumClassIsNotAClass)
{
    const LexedSource src =
        lex("t.cc", "enum class Color { kRed, kBlue };\n");
    const SourceModel m = modelOf(src);
    EXPECT_TRUE(m.classes.empty());
}

// ---- operator overloads ----------------------------------------------

TEST(SourceModel, OperatorOverloadsAreShaped)
{
    const LexedSource src =
        lex("t.cc", "struct V {\n"
                    "    bool operator==(const V &o) const\n"
                    "    { return x == o.x; }\n"
                    "    int operator[](int i) const { return i; }\n"
                    "    int operator()(int a, int b) { return a + b; }\n"
                    "    int x;\n"
                    "};\n");
    const SourceModel m = modelOf(src);
    EXPECT_NE(findFn(m, "operator=="), nullptr);
    EXPECT_NE(findFn(m, "operator[]"), nullptr);
    EXPECT_NE(findFn(m, "operator()"), nullptr);
    // The operator bodies must not swallow the trailing member.
    EXPECT_NE(findVar(m, "x"), nullptr);
}

TEST(SourceModel, AssignmentOperatorIsNotAVarDecl)
{
    const LexedSource src =
        lex("t.cc", "struct S {\n"
                    "    S &operator=(const S &o);\n"
                    "    int member;\n"
                    "};\n");
    const SourceModel m = modelOf(src);
    EXPECT_EQ(findVar(m, "o"), nullptr);
    EXPECT_NE(findVar(m, "member"), nullptr);
}

// ---- member / annotation extraction ------------------------------------

TEST(SourceModel, MemberFlags)
{
    const LexedSource src =
        lex("t.cc", "class C {\n"
                    "    static constexpr unsigned kMax = 8;\n"
                    "    static unsigned counter_;\n"
                    "    const char *label_;\n"
                    "    char *const pin_;\n"
                    "    std::atomic<int> refs_;\n"
                    "};\n");
    const SourceModel m = modelOf(src);
    const VarDecl *k = findVar(m, "kMax");
    ASSERT_NE(k, nullptr);
    EXPECT_TRUE(k->isStatic);
    EXPECT_TRUE(k->isConst);
    const VarDecl *c = findVar(m, "counter_");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->isStatic);
    EXPECT_FALSE(c->isConst);
    // Pointer-to-const is a mutable pointer; const pointer is const.
    const VarDecl *label = findVar(m, "label_");
    ASSERT_NE(label, nullptr);
    EXPECT_FALSE(label->isConst);
    const VarDecl *pin = findVar(m, "pin_");
    ASSERT_NE(pin, nullptr);
    EXPECT_TRUE(pin->isConst);
    const VarDecl *refs = findVar(m, "refs_");
    ASSERT_NE(refs, nullptr);
    EXPECT_NE(refs->typeText.find("atomic"), std::string::npos);
}

TEST(SourceModel, FileScopeRecordsOnlyInterestingDecls)
{
    const LexedSource src =
        lex("t.cc", "int forwardDecl;\n"
                    "static unsigned g_count = 0;\n"
                    "thread_local int t_depth = 0;\n"
                    "int g_init = 3;\n");
    const SourceModel m = modelOf(src);
    // Uninitialized, unannotated, non-static decls stay unmodelled
    // (they are usually extern forward declarations).
    EXPECT_EQ(findVar(m, "forwardDecl"), nullptr);
    const VarDecl *g = findVar(m, "g_count");
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->isStatic);
    const VarDecl *t = findVar(m, "t_depth");
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->isThreadLocal);
    EXPECT_NE(findVar(m, "g_init"), nullptr);
}

} // namespace
} // namespace morph::analysis
