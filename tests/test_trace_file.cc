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
    // simulate() replays the trace resolveRunConfig loaded, one copy
    // per core.
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

// The TraceFileDeath cases pin every way a trace fails to load. The
// loader returns a message naming file:line instead of ending the
// process, and morphsim reports it as a bad configuration (exit 3,
// the morphsim_exit_bad_trace_record test).

/** The error of loading @p text as trace "bad"; expects a failure. */
std::string
loadError(const std::string &text)
{
    std::istringstream input(text);
    std::string error;
    EXPECT_FALSE(FileTraceSource::load(input, "bad", error).has_value());
    return error;
}

TEST(TraceFileDeath, RejectsBadType)
{
    EXPECT_EQ(loadError("1 X 1\n"),
              "trace bad:1: expected '<gap> <R|W> <hex-line>'");
}

TEST(TraceFileDeath, RejectsBadGap)
{
    // A truncated record ("R 12") must fail, not silently drop: the
    // first field is not a number, so the line is a broken trace.
    EXPECT_EQ(loadError("10 R 1a\n"
                        "R 12\n"),
              "trace bad:2: bad gap 'R'; expected '<gap> <R|W> <hex-line>'");
}

TEST(TraceFileDeath, RejectsNegativeGap)
{
    // strtoull would happily wrap "-5" to a huge value; the parser
    // must reject the sign instead.
    EXPECT_NE(loadError("-5 R 1a\n").find("bad:1: bad gap '-5'"),
              std::string::npos);
}

TEST(TraceFileDeath, RejectsTrailingGarbageInGap)
{
    EXPECT_NE(loadError("12x R 1a\n").find("bad:1: bad gap '12x'"),
              std::string::npos);
}

TEST(TraceFileDeath, RejectsSignedGap)
{
    EXPECT_EQ(loadError("+5 R 1a\n"),
              "trace bad:1: bad gap '+5'; expected '<gap> <R|W> <hex-line>'");
}

TEST(TraceFileDeath, RejectsFourthField)
{
    // A fourth field is a record this format does not know, not a
    // comment to drop.
    EXPECT_EQ(loadError("10 R 1a 99\n"),
              "trace bad:1: unexpected field '99'; expected "
              "'<gap> <R|W> <hex-line>'");
}

TEST(TraceFileDeath, RejectsSignedAddress)
{
    // "-1" would otherwise wrap to line 0xffffffffffffffff.
    EXPECT_EQ(loadError("10 R -1\n"), "trace bad:1: bad line address '-1'");
    EXPECT_EQ(loadError("10 R +1\n"), "trace bad:1: bad line address '+1'");
    EXPECT_EQ(loadError("10 R 0x-1\n"),
              "trace bad:1: bad line address '0x-1'");
}

TEST(TraceFileDeath, RejectsAddressPast64Bits)
{
    EXPECT_EQ(loadError("1 R 10000000000000000\n"),
              "trace bad:1: bad line address '10000000000000000'");
}

TEST(TraceFile, AcceptsHexPrefixTabsAndCrlf)
{
    std::istringstream input("1 R 0x1a\r\n"
                             "2\tW\t0XFF \r\n"
                             "3 R ffffffffffffffff\n");
    FileTraceSource trace(input, "inline");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.next().line, 0x1au);
    const TraceEntry entry = trace.next();
    EXPECT_EQ(entry.gap, 2u);
    EXPECT_EQ(int(entry.type), int(AccessType::Write));
    EXPECT_EQ(entry.line, 0xffu);
    EXPECT_EQ(trace.next().line, ~LineAddr(0));
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
    EXPECT_EQ(loadError("1 R zz!\n"), "trace bad:1: bad line address 'zz!'");
}

TEST(TraceFileDeath, RejectsEmpty)
{
    EXPECT_EQ(loadError("# only comments\n"), "trace bad: no events");
}

TEST(TraceFileDeath, RejectsMissingFile)
{
    std::string error;
    EXPECT_FALSE(
        FileTraceSource::load("/nonexistent/trace.trc", error).has_value());
    EXPECT_EQ(error, "trace: cannot open /nonexistent/trace.trc");
}

TEST(TraceFileDeath, ConstructorStillEndsTheProcess)
{
    // The constructors are for traces already known to load; on a bad
    // one they end the process with the same message.
    std::istringstream input("1 X 1\n");
    EXPECT_EXIT(FileTraceSource(input, "bad"), ::testing::ExitedWithCode(1),
                "bad:1: expected");
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
