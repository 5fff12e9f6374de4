/**
 * @file
 * Tests for trace file parsing, writing, and replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workloads/trace_file.hh"
#include "workloads/workload_db.hh"

namespace morph
{
namespace
{

TEST(TraceFile, ParsesBasicFormat)
{
    std::istringstream input("10 R 1a\n"
                             "0 W ff\n"
                             "3 R 100\n");
    FileTraceSource trace(input, "inline");
    ASSERT_EQ(trace.size(), 3u);

    TraceEntry entry = trace.next();
    EXPECT_EQ(entry.gap, 10u);
    EXPECT_EQ(int(entry.type), int(AccessType::Read));
    EXPECT_EQ(entry.line, 0x1au);

    entry = trace.next();
    EXPECT_EQ(entry.gap, 0u);
    EXPECT_EQ(int(entry.type), int(AccessType::Write));
    EXPECT_EQ(entry.line, 0xffu);
}

TEST(TraceFile, SkipsCommentsAndBlankLines)
{
    std::istringstream input("# a trace\n"
                             "\n"
                             "5 R 10  # trailing comment\n"
                             "   \n"
                             "7 W 20\n");
    FileTraceSource trace(input, "inline");
    EXPECT_EQ(trace.size(), 2u);
}

TEST(TraceFile, HighestLineNamesItsFirstFileLine)
{
    std::istringstream input("# header\n"
                             "1 R 40\n"
                             "2 W 7ff\n"
                             "\n"
                             "3 R 7ff\n"
                             "4 R 3\n");
    const FileTraceSource trace(input, "inline");
    EXPECT_EQ(trace.highest().line, 0x7ffu);
    EXPECT_EQ(trace.highest().fileLine, 3u);
}

TEST(TraceFile, CopiesReplayIndependently)
{
    // runTraceFile parses once and gives each core a copy.
    std::istringstream input("1 R 1\n2 W 2\n3 R 3\n");
    FileTraceSource loaded(input, "inline");
    FileTraceSource copy(loaded);
    EXPECT_EQ(loaded.next().line, 1u);
    EXPECT_EQ(loaded.next().line, 2u);
    EXPECT_EQ(copy.next().line, 1u);
}

TEST(TraceFile, ReplaysCyclically)
{
    std::istringstream input("1 R 1\n2 W 2\n");
    FileTraceSource trace(input, "inline");
    EXPECT_EQ(trace.next().line, 1u);
    EXPECT_EQ(trace.next().line, 2u);
    EXPECT_EQ(trace.next().line, 1u); // wrapped
}

TEST(TraceFileDeath, RejectsBadType)
{
    std::istringstream input("1 X 1\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"),
                ::testing::ExitedWithCode(1), "expected");
}

TEST(TraceFileDeath, RejectsBadGap)
{
    // A truncated record ("R 12") must die, not silently drop: the
    // first field is not a number, so the line is a broken trace.
    std::istringstream input("10 R 1a\n"
                             "R 12\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"),
                ::testing::ExitedWithCode(1), "bad gap 'R'");
}

TEST(TraceFileDeath, RejectsNegativeGap)
{
    // strtoull would happily wrap "-5" to a huge value; the parser
    // must reject the sign instead.
    std::istringstream input("-5 R 1a\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"),
                ::testing::ExitedWithCode(1), "bad gap '-5'");
}

TEST(TraceFileDeath, RejectsTrailingGarbageInGap)
{
    std::istringstream input("12x R 1a\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"),
                ::testing::ExitedWithCode(1), "bad gap '12x'");
}

TEST(TraceFile, ClampsOversizedGapWithWarning)
{
    // Gaps wider than 32 bits clamp to the field's maximum; the
    // parser warns but the trace stays usable.
    std::istringstream input("99999999999 R 1a\n");
    ::testing::internal::CaptureStderr();
    FileTraceSource trace(input, "inline");
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("exceeds 32 bits"), std::string::npos);
    EXPECT_EQ(trace.next().gap, ~std::uint32_t(0));
}

TEST(TraceFileDeath, RejectsBadAddress)
{
    std::istringstream input("1 R zz!\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"),
                ::testing::ExitedWithCode(1), "bad line address");
}

TEST(TraceFileDeath, RejectsEmpty)
{
    std::istringstream input("# only comments\n");
    EXPECT_EXIT(FileTraceSource(input, "empty"),
                ::testing::ExitedWithCode(1), "no events");
}

TEST(TraceFileDeath, RejectsMissingFile)
{
    EXPECT_EXIT(FileTraceSource("/nonexistent/trace.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceFile, RoundTripsThroughWriter)
{
    // Snapshot a synthetic generator, serialize, reload: identical.
    const WorkloadSpec *spec = findWorkload("libquantum");
    ASSERT_NE(spec, nullptr);
    auto generator = makeWorkloadTrace(*spec, 0, 4, 1ull << 30, 5);
    const auto captured = captureTrace(*generator, 500);

    std::stringstream buffer;
    writeTrace(buffer, captured);
    FileTraceSource reloaded(buffer, "roundtrip");
    ASSERT_EQ(reloaded.size(), captured.size());
    for (const TraceEntry &expected : captured) {
        const TraceEntry actual = reloaded.next();
        ASSERT_EQ(actual.gap, expected.gap);
        ASSERT_EQ(int(actual.type), int(expected.type));
        ASSERT_EQ(actual.line, expected.line);
    }
}

} // namespace
} // namespace morph
