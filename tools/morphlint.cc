/**
 * @file
 * morphlint — static checker for counter-format and tree invariants.
 *
 * The bit-level cacheline formats of docs/FORMATS.md are the contract
 * between the codecs, the integrity tree, and the paper's correctness
 * argument. morphlint re-derives every documented invariant
 * independently and checks it against the code's constants and codec
 * behaviour:
 *
 *   1. ZCC width schedule — bucket boundaries 16/32/36/42/51/64 map to
 *      16/8/7/6/5/4-bit counters, every bucket fits the 256-bit
 *      payload, widths are monotone, and each is utility-maximal.
 *   2. Field layouts — ZCC and MCR field (offset, width) sets
 *      partition [0, 512) bits exactly, with the MAC at [448, 512);
 *      split-counter layouts for every supported arity sum to 512.
 *   3. Layout probes — encode through each codec, then re-read every
 *      field at the *documented* raw bit offsets, catching any drift
 *      between code and specification.
 *   4. Tree geometry — level sizes for every named configuration are
 *      recomputed with independent arithmetic (ceil-division chains)
 *      and compared against TreeGeometry, including slab placement
 *      and total-footprint accounting.
 *   5. Simulator configs — the settings loader morphsim runs
 *      (sim/run_config.hh) must accept every *.ini passed on the
 *      command line, and the tree geometry its settings imply must
 *      pass check 4.
 *
 * INI files may also carry [lint.*] sections that *override* the
 * expected values; this is how the test suite feeds morphlint a
 * deliberately wrong specification and asserts a non-zero exit.
 * Exit status: 0 if every check passes, 1 on any violation, 2 on a
 * bad flag or an unreadable file.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/bitfield.hh"
#include "common/ini.hh"
#include "common/parse.hh"
#include "common/types.hh"
#include "counters/counter_factory.hh"
#include "counters/mcr_codec.hh"
#include "counters/split_counter.hh"
#include "counters/zcc_codec.hh"
#include "integrity/tree_config.hh"
#include "integrity/tree_geometry.hh"
#include "sim/run_config.hh"

namespace
{

using namespace morph;

/** Violation collector: every failed check is reported, none aborts. */
class Lint
{
  public:
    void
    fail(const std::string &where, const std::string &what)
    {
        std::fprintf(stderr, "morphlint: FAIL [%s] %s\n", where.c_str(),
                     what.c_str());
        ++failures_;
    }

    template <typename A, typename B>
    void
    expectEq(const std::string &where, const std::string &what, A actual,
             B expected)
    {
        if (std::uint64_t(actual) != std::uint64_t(expected)) {
            fail(where, what + ": got " +
                            std::to_string(std::uint64_t(actual)) +
                            ", expected " +
                            std::to_string(std::uint64_t(expected)));
        }
    }

    void
    expectTrue(const std::string &where, const std::string &what,
               bool condition)
    {
        if (!condition)
            fail(where, what);
    }

    unsigned failures() const { return failures_; }

  private:
    unsigned failures_ = 0;
};

/** One ZCC width bucket: populations in (prevBound, bound] get width. */
struct Bucket
{
    unsigned bound;
    unsigned width;
};

/** The documented schedule (FORMATS.md / paper Fig 8). */
const std::vector<Bucket> builtinBuckets = {
    {16, 16}, {32, 8}, {36, 7}, {42, 6}, {51, 5}, {64, 4},
};

/** Effective counters feed a 56-bit AES-CTR seed field (otp.cc). */
constexpr unsigned otpCounterBits = 56;

/** Largest whole-GB capacity the geometry checks accept (1 PiB). */
constexpr std::uint64_t maxMemGb = 1u << 20;

// ---------------------------------------------------------------------
// 1. ZCC width schedule
// ---------------------------------------------------------------------

unsigned
scheduledWidth(const std::vector<Bucket> &buckets, unsigned k)
{
    for (const Bucket &b : buckets)
        if (k <= b.bound)
            return b.width;
    return 0;
}

void
checkZccBuckets(Lint &lint, const std::vector<Bucket> &buckets,
                const std::string &where)
{
    lint.expectTrue(where, "bucket table is non-empty", !buckets.empty());
    if (buckets.empty())
        return;

    unsigned prev_bound = 0;
    unsigned prev_width = ~0u;
    for (const Bucket &b : buckets) {
        lint.expectTrue(where,
                        "bucket bounds strictly increase (bound " +
                            std::to_string(b.bound) + ")",
                        b.bound > prev_bound);
        lint.expectTrue(where,
                        "widths shrink as population grows (width " +
                            std::to_string(b.width) + ")",
                        b.width < prev_width && b.width >= 1);
        lint.expectTrue(where,
                        "bucket " + std::to_string(b.bound) + "x" +
                            std::to_string(b.width) +
                            " fits the 256-bit payload",
                        b.bound * b.width <= zcc::payloadBits);
        lint.expectTrue(where,
                        "bucket " + std::to_string(b.bound) + "x" +
                            std::to_string(b.width) +
                            " is utility-maximal (one more counter "
                            "would not fit)",
                        (b.bound + 1) * b.width > zcc::payloadBits);
        prev_bound = b.bound;
        prev_width = b.width;
    }
    lint.expectEq(where, "last bucket covers the 64-counter limit",
                  buckets.back().bound, zcc::maxNonZero);

    for (unsigned k = 0; k <= zcc::maxNonZero; ++k) {
        const unsigned expected =
            k == 0 ? buckets.front().width : scheduledWidth(buckets, k);
        lint.expectEq(where,
                      "zcc::sizeForCount(" + std::to_string(k) + ")",
                      zcc::sizeForCount(k), expected);
    }
}

// ---------------------------------------------------------------------
// 2. Field layouts partition the 512-bit line
// ---------------------------------------------------------------------

struct Field
{
    const char *name;
    unsigned offset;
    unsigned width;
};

void
checkPartition(Lint &lint, const std::string &where,
               std::vector<Field> fields)
{
    for (std::size_t i = 1; i < fields.size(); ++i)
        for (std::size_t j = i; j > 0; --j)
            if (fields[j].offset < fields[j - 1].offset)
                std::swap(fields[j], fields[j - 1]);

    unsigned pos = 0;
    for (const Field &f : fields) {
        if (f.offset != pos) {
            lint.fail(where, std::string(f.name) + " starts at bit " +
                                 std::to_string(f.offset) + " but bit " +
                                 std::to_string(pos) +
                                 " is the next unclaimed bit (" +
                                 (f.offset > pos ? "gap" : "overlap") +
                                 ")");
            return;
        }
        pos = f.offset + f.width;
    }
    lint.expectEq(where, "fields cover the full 512-bit line", pos,
                  lineBits);
}

void
checkLayouts(Lint &lint)
{
    checkPartition(
        lint, "zcc-layout",
        {{"format flag", zcc::fOffset, 1},
         {"Ctr-Sz", zcc::ctrSzOffset, zcc::ctrSzBits},
         {"major", zcc::majorOffset, zcc::majorBits},
         {"bit-vector", zcc::bvOffset, zcc::bvBits},
         {"payload", zcc::payloadOffset, zcc::payloadBits},
         {"MAC", CounterFormat::macOffset, 64}});
    lint.expectEq("zcc-layout", "bit-vector covers every child",
                  zcc::bvBits, zcc::numCounters);
    lint.expectTrue("zcc-layout",
                    "Ctr-Sz field can store the 16-bit max width",
                    (1u << zcc::ctrSzBits) - 1 >= 16);
    lint.expectEq("zcc-layout",
                  "payload equals 64 counters at the 4-bit floor",
                  zcc::payloadBits, zcc::maxNonZero * 4);

    checkPartition(
        lint, "mcr-layout",
        {{"format flag", mcr::fOffset, 1},
         {"major", mcr::majorOffset, mcr::majorBits},
         {"base 0", mcr::base0Offset, mcr::baseBits},
         {"base 1", mcr::base0Offset + mcr::baseBits, mcr::baseBits},
         {"minors", mcr::minorFieldOffset,
          mcr::numCounters * mcr::minorBits},
         {"MAC", CounterFormat::macOffset, 64}});
    lint.expectEq("mcr-layout", "sets partition the children",
                  mcr::numSets * mcr::setSize, mcr::numCounters);
    lint.expectEq("mcr-layout", "minorMax matches the minor width",
                  mcr::minorMax, (1u << mcr::minorBits) - 1);
    lint.expectEq("mcr-layout", "baseMax matches the base width",
                  mcr::baseMax, (1u << mcr::baseBits) - 1);

    // The ZCC->MCR morph splits the ZCC major into (major49, base7);
    // both formats' combined counters must fit the 56-bit OTP seed.
    lint.expectEq("morph-consistency",
                  "MCR major+base equals the OTP counter width",
                  mcr::majorBits + mcr::baseBits, otpCounterBits);
    lint.expectTrue("morph-consistency",
                    "ZCC major field can hold every morphable value",
                    mcr::majorBits + mcr::baseBits <= zcc::majorBits);

    // Split counters: major(64) + n x (384/n) + MAC(64) == 512.
    for (unsigned n : {8u, 16u, 32u, 64u, 128u}) {
        const std::string where = "sc" + std::to_string(n) + "-layout";
        lint.expectEq(where, "minor field divides evenly", 384 % n, 0u);
        const unsigned minor_bits = 384 / n;
        checkPartition(lint, where,
                       {{"major", 0, 64},
                        {"minors", 64, n * minor_bits},
                        {"MAC", CounterFormat::macOffset, 64}});
        SplitCounterFormat format(n);
        lint.expectEq(where, "SplitCounterFormat minor width",
                      format.minorBits(), minor_bits);
        lint.expectEq(where, "SplitCounterFormat arity", format.arity(),
                      n);
    }

    // SC-n+R: the 64-bit combined base splits as major(57) | base(7).
    checkPartition(lint, "sc-rebased-layout",
                   {{"major", 0, 57},
                    {"base", 57, 7},
                    {"minors", 64, 384},
                    {"MAC", CounterFormat::macOffset, 64}});
}

// ---------------------------------------------------------------------
// 3. Layout probes: codecs vs. documented raw offsets
// ---------------------------------------------------------------------

void
checkLayoutProbes(Lint &lint)
{
    // ZCC: flag at bit 0 clear, major readable at [7, 64).
    {
        CachelineData line;
        zcc::init(line, 0x0123456789abcdull);
        lint.expectEq("zcc-probe", "format flag bit0",
                      readBits(line, 0, 1), 0u);
        lint.expectEq("zcc-probe", "major at documented offset [7,64)",
                      readBits(line, 7, 57), 0x0123456789abcdull);
        lint.expectEq("zcc-probe", "Ctr-Sz at [1,7) after init",
                      readBits(line, 1, 6), zcc::sizeForCount(0));
        zcc::insertNonZero(line, 5);
        lint.expectEq("zcc-probe", "live bit-vector bit at 64+idx",
                      readBits(line, 64 + 5, 1), 1u);
        lint.expectEq("zcc-probe",
                      "rank-0 counter at payload offset [192,208)",
                      readBits(line, 192, 16), 1u);
        CounterFormat::setMac(line, 0xfeedfacecafebeefull);
        lint.expectEq("zcc-probe", "MAC at [448,512)",
                      readBits(line, 448, 64), 0xfeedfacecafebeefull);
        lint.expectEq("zcc-probe", "MAC write leaves major intact",
                      zcc::majorOf(line), 0x0123456789abcdull);
    }

    // MCR: flag set, major at [1,50), bases at [50,57) and [57,64),
    // 3-bit minors from bit 64.
    {
        CachelineData line;
        mcr::init(line, 0x1ffffffffffffull, 0x55);
        lint.expectEq("mcr-probe", "format flag bit0",
                      readBits(line, 0, 1), 1u);
        lint.expectEq("mcr-probe", "major at documented offset [1,50)",
                      readBits(line, 1, 49), 0x1ffffffffffffull);
        lint.expectEq("mcr-probe", "base0 at [50,57)",
                      readBits(line, 50, 7), 0x55u);
        lint.expectEq("mcr-probe", "base1 at [57,64)",
                      readBits(line, 57, 7), 0x55u);
        mcr::setMinor(line, 70, 5);
        lint.expectEq("mcr-probe", "minor 70 at bit 64 + 70*3",
                      readBits(line, 64 + 70 * 3, 3), 5u);
        lint.expectEq("mcr-probe", "effective = ((major<<7)|base)+minor",
                      mcr::effective(line, 70),
                      ((0x1ffffffffffffull << 7) | 0x55u) + 5);
    }

    // SC-64: major at [0,64), 6-bit minors from bit 64.
    {
        SplitCounterFormat format(64);
        CachelineData line;
        format.init(line);
        for (int i = 0; i < 3; ++i)
            format.increment(line, 9);
        lint.expectEq("sc64-probe", "minor 9 at bit 64 + 9*6",
                      readBits(line, 64 + 9 * 6, 6), 3u);
        lint.expectEq("sc64-probe", "major at [0,64) still zero",
                      readBits(line, 0, 64), 0u);
        lint.expectEq("sc64-probe", "effective = (major<<6)|minor",
                      format.read(line, 9), 3u);
    }
}

// ---------------------------------------------------------------------
// 4. Tree geometry
// ---------------------------------------------------------------------

void
checkGeometry(Lint &lint, const std::string &name,
              const TreeConfig &config, std::uint64_t mem_bytes)
{
    const std::string where =
        "geometry/" + name + "@" +
        std::to_string(mem_bytes >> 30) + "GB";
    const TreeGeometry geom(mem_bytes, config);
    const auto &levels = geom.levels();

    lint.expectEq(where, "data line count", geom.dataLines(),
                  mem_bytes / lineBytes);
    lint.expectTrue(where, "geometry has at least one level",
                    !levels.empty());
    if (levels.empty())
        return;

    // Recompute the level chain with independent ceil-division
    // arithmetic straight from the per-level arity schedule.
    std::uint64_t covered = mem_bytes / lineBytes;
    std::uint64_t expected_total = mem_bytes;
    LineAddr expected_base = geom.dataLines();
    for (unsigned level = 0;; ++level) {
        const unsigned arity = counterArity(config.kindAt(level));
        const std::uint64_t expected_entries =
            (covered + arity - 1) / arity;
        if (level >= levels.size()) {
            lint.fail(where, "level " + std::to_string(level) +
                                 " missing from TreeGeometry");
            return;
        }
        const LevelInfo &info = levels[level];
        const std::string lvl = "level " + std::to_string(level);
        lint.expectEq(where, lvl + " arity", info.arity, arity);
        lint.expectEq(where, lvl + " entries", info.entries,
                      expected_entries);
        lint.expectTrue(where, lvl + " covers every child",
                        info.entries * arity >= covered);
        lint.expectEq(where, lvl + " bytes", info.bytes,
                      expected_entries * lineBytes);
        lint.expectEq(where, lvl + " slab base (contiguous placement)",
                      info.baseLine, expected_base);
        expected_base += expected_entries;
        expected_total += expected_entries * lineBytes;
        covered = expected_entries;
        if (expected_entries <= 1)
            break;
    }

    lint.expectEq(where, "level count", levels.size(),
                  std::size_t(geom.rootLevel() + 1));
    lint.expectEq(where, "root level has a single entry",
                  levels.back().entries, 1u);
    lint.expectEq(where, "treeLevels() excludes encryption counters",
                  geom.treeLevels(), unsigned(levels.size() - 1));
    lint.expectEq(where, "total footprint accounting",
                  geom.totalBytes(), expected_total);
    lint.expectEq(where, "encryption bytes are level 0 bytes",
                  geom.encryptionBytes(), levels[0].bytes);

    // Every metadata line must map back to exactly its (level, index).
    for (const LevelInfo &info : levels) {
        unsigned level = ~0u;
        std::uint64_t index = ~0ull;
        lint.expectTrue(where, "entryOfLine resolves slab base",
                        geom.entryOfLine(info.baseLine, level, index));
        lint.expectEq(where, "entryOfLine level", level, info.level);
        lint.expectEq(where, "entryOfLine index", index, 0u);
    }
}

// ---------------------------------------------------------------------
// 5. INI validation (simulator configs + lint spec overrides)
// ---------------------------------------------------------------------

/** The [lint.*] expectation keys that take a count; lint.zcc.buckets
 *  and lint.geometry.config take text. Every other key is a simulator
 *  setting, checked by the settings loader. */
const char *const lintCountKeys[] = {
    "lint.geometry.mem_gb", "lint.geometry.tree_levels",
    "lint.geometry.metadata_mb", "lint.mcr.major_bits",
    "lint.mcr.base_bits", "lint.mcr.minor_bits", "lint.sc.arity",
    "lint.sc.minor_bits", "lint.morph.otp_counter_bits",
};

bool
isLintKey(const std::string &key)
{
    bool ok = key == "lint.zcc.buckets" || key == "lint.geometry.config";
    for (const char *candidate : lintCountKeys)
        ok = ok || key == candidate;
    return ok;
}

std::vector<Bucket>
parseBuckets(Lint &lint, const std::string &where,
             const std::string &text)
{
    std::vector<Bucket> buckets;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        const std::size_t colon = item.find(':');
        const std::optional<std::uint64_t> bound =
            parseCount(item.substr(0, colon).c_str());
        const std::optional<std::uint64_t> width =
            colon == std::string::npos
                ? std::nullopt
                : parseCount(item.c_str() + colon + 1);
        if (!bound || !width || *bound > 64 || *width > 64) {
            lint.fail(where, "malformed bucket '" + item +
                                 "' (want BOUND:WIDTH, each <= 64)");
            return {};
        }
        buckets.push_back({unsigned(*bound), unsigned(*width)});
        pos = comma + 1;
    }
    return buckets;
}

void
checkIniFile(Lint &lint, const std::string &path)
{
    const std::string where = "config/" + path;
    IniFile ini;
    std::string error;
    if (!IniFile::fromFile(path, ini, error)) {
        lint.fail(where, error);
        return;
    }

    // --- simulator settings: the loader morphsim runs must accept
    // the file, and the geometry it implies must check out ---
    RunConfig config;
    std::vector<std::string> unknown;
    const bool loaded = applyIni(config, ini, unknown, error) &&
                        resolveRunConfig(config, error);
    if (!loaded)
        lint.fail(where, error);
    for (const std::string &key : unknown)
        if (!isLintKey(key))
            lint.fail(where, "unknown key '" + key + "'");
    if (loaded)
        checkGeometry(lint, path, config.secmem.tree,
                      config.secmem.memBytes);

    // --- expected-value overrides (the lint spec sections) ---
    bool counts_ok = true;
    for (const char *key : lintCountKeys) {
        const std::string text = ini.getString(key, "0");
        if (!parseCount(text.c_str())) {
            lint.fail(where, std::string(key) +
                                 " needs a non-negative integer (got '" +
                                 text + "')");
            counts_ok = false;
        }
    }
    if (!counts_ok)
        return;
    const auto count = [&ini](const char *key, std::uint64_t fallback) {
        return ini.has(key) ? *parseCount(ini.getString(key).c_str())
                            : fallback;
    };

    if (ini.has("lint.zcc.buckets")) {
        const auto buckets = parseBuckets(
            lint, where, ini.getString("lint.zcc.buckets"));
        if (!buckets.empty())
            checkZccBuckets(lint, buckets, where + "/zcc-buckets");
    }

    // MCR partition spec: declared field widths must match the codec
    // constants and tile the 512-bit line exactly.
    if (ini.has("lint.mcr.major_bits") || ini.has("lint.mcr.base_bits") ||
        ini.has("lint.mcr.minor_bits")) {
        const std::string w = where + "/mcr";
        const std::uint64_t major_bits =
            count("lint.mcr.major_bits", mcr::majorBits);
        const std::uint64_t base_bits =
            count("lint.mcr.base_bits", mcr::baseBits);
        const std::uint64_t minor_bits =
            count("lint.mcr.minor_bits", mcr::minorBits);
        lint.expectEq(w, "declared MCR major width", mcr::majorBits,
                      major_bits);
        lint.expectEq(w, "declared MCR base width", mcr::baseBits,
                      base_bits);
        lint.expectEq(w, "declared MCR minor width", mcr::minorBits,
                      minor_bits);
        lint.expectEq(w, "declared MCR fields partition the line",
                      1 + major_bits + mcr::numSets * base_bits +
                          mcr::numCounters * minor_bits + 64,
                      lineBits);
    }

    // SC-n layout spec: declared arity/minor width must divide the
    // 384-bit minor field and match the codec.
    if (ini.has("lint.sc.arity") || ini.has("lint.sc.minor_bits")) {
        const std::string w = where + "/sc";
        const std::uint64_t arity = count("lint.sc.arity", 64);
        if (arity == 0 || 384 % arity != 0 || 384 / arity > 56) {
            lint.fail(w, "declared arity " + std::to_string(arity) +
                             " does not split the 384-bit minor field "
                             "into minors of at most 56 bits");
        } else {
            const std::uint64_t minor_bits =
                count("lint.sc.minor_bits", 384 / arity);
            lint.expectEq(w, "declared SC minor width", 384 / arity,
                          minor_bits);
            SplitCounterFormat format{unsigned(arity)};
            lint.expectEq(w, "SplitCounterFormat minor width",
                          format.minorBits(), minor_bits);
        }
    }

    // Morph consistency spec: both representations' combined counters
    // must fit the declared OTP seed width.
    if (ini.has("lint.morph.otp_counter_bits")) {
        const std::string w = where + "/morph";
        const std::uint64_t declared =
            count("lint.morph.otp_counter_bits", 0);
        lint.expectEq(w, "declared OTP counter width", otpCounterBits,
                      declared);
        lint.expectEq(w,
                      "MCR major+base equals the declared OTP width",
                      mcr::majorBits + mcr::baseBits, declared);
        lint.expectTrue(w,
                        "ZCC major can hold every declared-width value",
                        declared <= zcc::majorBits);
    }

    if (ini.has("lint.geometry.config") ||
        ini.has("lint.geometry.tree_levels") ||
        ini.has("lint.geometry.metadata_mb")) {
        const std::string spec_name =
            ini.getString("lint.geometry.config", config.configName);
        const TreeConfig *spec_tree = findTreeConfig(spec_name);
        if (!spec_tree) {
            lint.fail(where, "lint.geometry.config '" + spec_name +
                                 "' is not a known tree");
            return;
        }
        // Whole GB, like --mem-gb.
        const std::uint64_t spec_gb = count("lint.geometry.mem_gb", 0);
        if (ini.has("lint.geometry.mem_gb") &&
            (spec_gb == 0 || spec_gb > maxMemGb)) {
            lint.fail(where, "lint.geometry.mem_gb must be in [1, " +
                                 std::to_string(maxMemGb) + "]");
            return;
        }
        const TreeGeometry geom(
            spec_gb != 0 ? spec_gb << 30 : config.secmem.memBytes,
            *spec_tree);
        if (ini.has("lint.geometry.tree_levels")) {
            lint.expectEq(where + "/geometry",
                          spec_name + " tree levels", geom.treeLevels(),
                          count("lint.geometry.tree_levels", 0));
        }
        if (ini.has("lint.geometry.metadata_mb")) {
            const std::uint64_t metadata_bytes =
                geom.totalBytes() - geom.memBytes();
            lint.expectEq(where + "/geometry",
                          spec_name + " metadata MB",
                          metadata_bytes >> 20,
                          count("lint.geometry.metadata_mb", 0));
        }
    }
}

void
usage()
{
    std::printf(
        "usage: morphlint [options] [config.ini ...]\n"
        "  --mem-gb N   protected capacity in whole GB for geometry\n"
        "               checks (default 16)\n"
        "  --quiet      only print failures\n"
        "Checks ZCC bucket/width schedule, ZCC/MCR/SC-n field layouts,\n"
        "tree-geometry arithmetic, and each INI file given. Exits 1 on\n"
        "any violation.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> configs;
    std::uint64_t mem_gb = 16;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mem-gb" && i + 1 < argc) {
            mem_gb = countOption("morphlint", arg, argv[++i], 1, maxMemGb);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 2;
        } else {
            configs.push_back(arg);
        }
    }

    // I/O problems are usage errors (exit 2), not lint findings: a
    // missing config file must not read as "the invariants failed".
    for (const std::string &path : configs) {
        std::ifstream probe(path);
        if (!probe) {
            std::fprintf(stderr, "morphlint: cannot read %s\n",
                         path.c_str());
            return 2;
        }
    }

    Lint lint;
    checkZccBuckets(lint, builtinBuckets, "zcc-buckets");
    checkLayouts(lint);
    checkLayoutProbes(lint);
    for (const NamedTreeConfig &named : namedTreeConfigs())
        checkGeometry(lint, named.name, named.config, mem_gb << 30);
    for (const std::string &path : configs)
        checkIniFile(lint, path);

    if (lint.failures() != 0) {
        std::fprintf(stderr, "morphlint: %u violation(s)\n",
                     lint.failures());
        return 1;
    }
    if (!quiet)
        std::printf("morphlint: all invariants hold (%zu config "
                    "file(s) checked)\n",
                    configs.size());
    return 0;
}
