/**
 * @file
 * Tests for the INI configuration parser. IniFile only splits a file
 * into dotted keys and string values; the values' meaning is checked
 * by the settings loader (test_run_config.cc) with the strict parsers
 * of common/parse.hh.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/ini.hh"
#include "common/parse.hh"

namespace morph
{
namespace
{

IniFile
parse(const std::string &text)
{
    std::istringstream input(text);
    IniFile ini;
    std::string error;
    EXPECT_TRUE(IniFile::fromStream(input, "inline", ini, error))
        << error;
    return ini;
}

/** The error from parsing @p text, which must fail. */
std::string
parseError(const std::string &text)
{
    std::istringstream input(text);
    IniFile ini;
    std::string error;
    EXPECT_FALSE(IniFile::fromStream(input, "inline", ini, error));
    return error;
}

TEST(Ini, SectionsAndKeys)
{
    const IniFile ini = parse("top = 1\n"
                              "[system]\n"
                              "workload = mcf\n"
                              "mem_gb = 16\n"
                              "[dram]\n"
                              "refresh = true\n");
    EXPECT_TRUE(ini.has("top"));
    EXPECT_TRUE(ini.has("system.workload"));
    EXPECT_FALSE(ini.has("system.refresh"));
    EXPECT_EQ(ini.getString("system.workload", "x"), "mcf");
    EXPECT_EQ(ini.getString("system.mem_gb"), "16");
    EXPECT_EQ(ini.getString("dram.refresh"), "true");
    EXPECT_EQ(ini.name(), "inline");
}

TEST(Ini, FallbacksForMissingKeys)
{
    const IniFile ini = parse("[a]\nb = 1\n");
    EXPECT_EQ(ini.getString("a.missing", "dflt"), "dflt");
    EXPECT_EQ(ini.getString("a.missing"), "");
    EXPECT_FALSE(ini.has("a.missing"));
}

TEST(Ini, CommentsAndWhitespace)
{
    const IniFile ini = parse("; full line comment\n"
                              "# hash comment\n"
                              "  [ sec ]  \n"
                              "  key =  spaced value  ; trailing\n");
    EXPECT_EQ(ini.getString("sec.key", ""), "spaced value");
}

TEST(Ini, LastAssignmentWins)
{
    const IniFile ini = parse("[s]\nk = 1\nk = 2\n");
    EXPECT_EQ(ini.getString("s.k"), "2");
    EXPECT_EQ(ini.keys().size(), 2u);
}

TEST(Ini, NumericFormats)
{
    // Values stay text; the shared parsers read decimal counts and
    // finite numbers only, so a hex or negative count is an error,
    // not 64 or a wrapped 2^64-3.
    const IniFile ini = parse("[n]\nhex = 0x40\nneg = -3\nf = 2.5e2\n");
    EXPECT_EQ(ini.getString("n.hex"), "0x40");
    EXPECT_FALSE(parseCount(ini.getString("n.hex").c_str()));
    EXPECT_FALSE(parseCount(ini.getString("n.neg").c_str()));
    EXPECT_EQ(parseNumber(ini.getString("n.neg").c_str()), -3.0);
    EXPECT_EQ(parsePositive(ini.getString("n.f").c_str()), 250.0);
}

TEST(Ini, BooleanSpellings)
{
    const IniFile ini = parse("[b]\na = yes\nb = OFF\nc = 1\nd = False\n");
    EXPECT_EQ(parseBool(ini.getString("b.a").c_str()), true);
    EXPECT_EQ(parseBool(ini.getString("b.b").c_str()), false);
    EXPECT_EQ(parseBool(ini.getString("b.c").c_str()), true);
    EXPECT_EQ(parseBool(ini.getString("b.d").c_str()), false);
    EXPECT_EQ(parseBool("On"), true);
    EXPECT_EQ(parseBool("no"), false);
}

TEST(IniDeath, RejectsBadSyntax)
{
    EXPECT_NE(parseError("[unterminated\n").find("inline:1: "
                                                 "unterminated section"),
              std::string::npos);
    EXPECT_NE(parseError("[s]\nnovalue\n").find("inline:2: expected "
                                                "'key = value'"),
              std::string::npos);
    EXPECT_NE(parseError("= 3\n").find("empty key"), std::string::npos);
}

TEST(IniDeath, RejectsBadTypes)
{
    const IniFile ini = parse("[t]\nx = abc\n");
    const std::string x = ini.getString("t.x");
    EXPECT_FALSE(parseCount(x.c_str()));
    EXPECT_FALSE(parseNumber(x.c_str()));
    EXPECT_FALSE(parsePositive(x.c_str()));
    EXPECT_FALSE(parseBool(x.c_str()));
    for (const char *bad : {"maybe", "", "2", "tru", " yes"})
        EXPECT_FALSE(parseBool(bad)) << "'" << bad << "'";
}

TEST(IniDeath, RejectsMissingFile)
{
    IniFile ini;
    std::string error;
    EXPECT_FALSE(IniFile::fromFile("/nonexistent/x.ini", ini, error));
    EXPECT_EQ(error, "cannot read /nonexistent/x.ini");
}

} // namespace
} // namespace morph
