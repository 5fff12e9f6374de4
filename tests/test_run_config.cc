/**
 * @file
 * Tests for the simulator settings loader (sim/run_config.hh): every
 * row of the settings table, driven through both of its inputs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/morphscope.hh"
#include "sim/run_config.hh"

namespace morph
{
namespace
{

IniFile
iniWith(const std::string &key, const std::string &value)
{
    const std::size_t dot = key.find('.');
    std::istringstream input("[" + key.substr(0, dot) + "]\n" +
                             key.substr(dot + 1) + " = " + value + "\n");
    IniFile ini;
    std::string error;
    EXPECT_TRUE(IniFile::fromStream(input, "inline.ini", ini, error))
        << error;
    return ini;
}

/** Apply @p value to @p setting through an INI file; "" on success,
 *  else the error. */
std::string
viaIni(RunConfig &config, const Setting &setting, const std::string &value)
{
    std::string error;
    applyIni(config, iniWith(setting.key, value), error);
    return error;
}

/** Apply @p value to @p setting through its flag; "" on success. */
std::string
viaFlag(RunConfig &config, const Setting &setting, const std::string &value)
{
    std::string error;
    applyFlag(config, setting, value.c_str(), error);
    return error;
}

/** Values @p setting accepts, chosen to differ from the defaults. */
std::vector<std::string>
validValues(const Setting &setting)
{
    switch (setting.type) {
    case SettingType::Name:
        return {"sc64"};
    case SettingType::Count:
        return {setting.max == UINT64_MAX ? "12345"
                                          : std::to_string(setting.max)};
    case SettingType::Number:
        return {"2.5"};
    case SettingType::MemGb:
        return {"0.5", "64"};
    case SettingType::Bool:
        return {"0", "1"};
    case SettingType::Persist:
        return {"strict", "lazy", "off"};
    }
    return {};
}

/** Values @p setting must reject: junk and just out of range. */
std::vector<std::string>
badValues(const Setting &setting)
{
    switch (setting.type) {
    case SettingType::Name:
        return {""};
    case SettingType::Count: {
        std::vector<std::string> bad = {"abc", "-1", "1e5", "0x10", "7x"};
        if (setting.min > 0)
            bad.push_back(std::to_string(setting.min - 1));
        if (setting.max != UINT64_MAX)
            bad.push_back(std::to_string(setting.max + 1));
        return bad;
    }
    case SettingType::Number:
        return {"abc", "inf", "0.5", "2x"};
    case SettingType::MemGb:
        return {"abc", "0", "-1", "0.3", "0.0001", "1e30"};
    case SettingType::Bool:
        return {"maybe", "2", ""};
    case SettingType::Persist:
        return {"sometimes", "Strict", ""};
    }
    return {};
}

TEST(RunConfig, FlagAndIniLandInTheSameField)
{
    for (const Setting &setting : runSettings()) {
        SCOPED_TRACE(setting.key);
        for (const std::string &value : validValues(setting)) {
            RunConfig from_ini;
            EXPECT_EQ(viaIni(from_ini, setting, value), "") << value;
            if (setting.flag == nullptr)
                continue;
            // A presence flag can only say "true".
            if (setting.presence && value != "1")
                continue;
            RunConfig from_flag;
            EXPECT_EQ(viaFlag(from_flag, setting, value), "") << value;
            EXPECT_TRUE(from_flag == from_ini) << value;
        }
    }
}

// The paper driver simulates a set of equal RunConfigs once, so every
// field a run depends on must take part in ==.
TEST(RunConfig, EqualityCoversEverySetting)
{
    const RunConfig defaults;
    for (const Setting &setting : runSettings()) {
        SCOPED_TRACE(setting.key);
        bool changed = false;
        for (const std::string &value : validValues(setting)) {
            RunConfig config;
            EXPECT_EQ(viaIni(config, setting, value), "") << value;
            changed = changed || !(config == defaults);
        }
        EXPECT_TRUE(changed) << "no value moved the equality key";
    }

    RunConfig insecure;
    insecure.secmem.secure = false;
    EXPECT_FALSE(insecure == defaults);
    RunConfig ways;
    ways.secmem.metadataCacheWays = 16;
    EXPECT_FALSE(ways == defaults);
    RunConfig renamed;
    renamed.secmem.tree.name = "renamed";
    EXPECT_FALSE(renamed == defaults);
}

TEST(RunConfig, BadValuesNameTheKeyOrFlag)
{
    for (const Setting &setting : runSettings()) {
        SCOPED_TRACE(setting.key);
        for (const std::string &value : badValues(setting)) {
            RunConfig config;
            const std::string ini_error = viaIni(config, setting, value);
            EXPECT_NE(ini_error.find(setting.key), std::string::npos)
                << "'" << value << "': " << ini_error;
            EXPECT_NE(ini_error.find("inline.ini"), std::string::npos);
            if (setting.flag == nullptr || setting.presence)
                continue;
            const std::string flag_error =
                viaFlag(config, setting, value);
            EXPECT_NE(flag_error.find(setting.flag), std::string::npos)
                << "'" << value << "': " << flag_error;
            EXPECT_TRUE(config == RunConfig{})
                << "a rejected value was stored";
        }
    }
}

TEST(RunConfig, FlagsAreUniqueAndPresenceFlagsAreBooleans)
{
    std::vector<std::string> seen;
    for (const Setting &setting : runSettings()) {
        for (const std::string &other : seen)
            EXPECT_NE(other, setting.key);
        seen.push_back(setting.key);
        if (setting.flag != nullptr) {
            EXPECT_EQ(findSettingFlag(setting.flag), &setting);
        }
        if (setting.presence) {
            EXPECT_EQ(setting.type, SettingType::Bool) << setting.key;
        }
    }
    EXPECT_EQ(findSettingFlag("--config-file"), nullptr);
    EXPECT_EQ(findSettingFlag("--stats-json"), nullptr);
}

TEST(RunConfig, UnknownKeysAreRejected)
{
    const auto apply = [](const char *text, std::string &error) {
        std::istringstream input(text);
        IniFile ini;
        EXPECT_TRUE(IniFile::fromStream(input, "typo.ini", ini, error));
        RunConfig config;
        return applyIni(config, ini, error);
    };
    std::string error;
    EXPECT_FALSE(apply("[system]\nworkload = lbm\ncache_k = 3\n"
                       "[lint.zcc]\nbuckets = 16:16\n",
                       error));
    EXPECT_EQ(error, "config typo.ini: unknown key 'system.cache_k'");
    // A bad value is reported before an unknown key.
    EXPECT_FALSE(
        apply("[system]\ncache_k = 3\ntiming = maybe\n", error));
    EXPECT_NE(error.find("system.timing needs"), std::string::npos)
        << error;
}

TEST(RunConfig, ResolveChecksNamesAndTrace)
{
    RunConfig config;
    std::string error;
    config.workload = "mix2";
    config.configName = "vault";
    ASSERT_TRUE(resolveRunConfig(config, error)) << error;
    EXPECT_EQ(config.secmem.tree.name, findTreeConfig("vault")->name);

    const auto rejects = [](RunConfig bad, const char *key) {
        std::string why;
        EXPECT_FALSE(resolveRunConfig(bad, why));
        EXPECT_NE(why.find(key), std::string::npos) << why;
    };
    RunConfig bad_tree;
    bad_tree.configName = "nope";
    rejects(bad_tree, "system.config");
    RunConfig bad_workload;
    bad_workload.workload = "nope";
    rejects(bad_workload, "system.workload");
    RunConfig bad_trace;
    bad_trace.tracePath = "/nonexistent/x.trc";
    rejects(bad_trace, "system.trace");
    RunConfig far_line;
    far_line.tracePath =
        std::string(MORPH_SOURCE_DIR) + "/tests/data/bad-trace-line.trc";
    rejects(far_line, "bad-trace-line.trc:3: line address ffffffffffff");
    RunConfig bad_record;
    bad_record.tracePath =
        std::string(MORPH_SOURCE_DIR) + "/tests/data/bad-trace-record.trc";
    rejects(bad_record, "bad-trace-record.trc:3: expected");
}

TEST(RunConfig, ResolveChecksTheLastLineOfMemory)
{
    // 16 GiB holds lines [0, 2^28): the last one replays, the next
    // one is a bad configuration that names its file line.
    const auto path = std::filesystem::temp_directory_path() /
                      ("morph-edge-" + std::to_string(::getpid()) + ".trc");
    const auto resolve = [&](const char *text, std::string &error) {
        std::ofstream(path) << text;
        RunConfig config;
        config.tracePath = path.string();
        return resolveRunConfig(config, error);
    };
    std::string error;
    EXPECT_TRUE(resolve("# edge\n1 R fffffff\n2 W 0\n", error)) << error;
    EXPECT_FALSE(resolve("1 R fffffff\n# edge\n2 W 10000000\n", error));
    EXPECT_NE(error.find(".trc:3: line address 10000000 is past the "
                         "268435456-line protected memory"),
              std::string::npos)
        << error;
    std::filesystem::remove(path);
}

TEST(RunConfig, SimulateReplaysTheResolvedTrace)
{
    // resolveRunConfig loads the trace once; simulate() replays that
    // copy and never reads the file again.
    const auto path = std::filesystem::temp_directory_path() /
                      ("morph-replay-" + std::to_string(::getpid()) +
                       ".trc");
    std::ofstream(path) << "3 R 10\n0 W 2f\n7 R 4000\n1 W 10\n";
    RunConfig config;
    config.tracePath = path.string();
    config.options.accessesPerCore = 400;
    config.options.warmupPerCore = 100;
    std::string error;
    ASSERT_TRUE(resolveRunConfig(config, error)) << error;
    const auto run = [&config] {
        MorphScope scope{ScopeConfig()};
        const SimResult result = simulate(config, &scope);
        std::ostringstream text;
        text << result.workload << ' ' << result.cycles << '\n';
        scope.dumpText(text, "sim");
        return text.str();
    };
    const std::string before = run();
    std::filesystem::remove(path);
    EXPECT_EQ(run(), before);
    EXPECT_NE(before.find(path.string()), std::string::npos);
}

TEST(RunConfig, ShippedConfigsLoad)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &entry :
         fs::directory_iterator(fs::path(MORPH_SOURCE_DIR) / "configs"))
        if (entry.path().extension() == ".ini")
            files.push_back(entry.path());
    ASSERT_FALSE(files.empty());
    for (const fs::path &path : files) {
        SCOPED_TRACE(path.string());
        IniFile ini;
        RunConfig config;
        std::string error;
        EXPECT_TRUE(IniFile::fromFile(path.string(), ini, error) &&
                    applyIni(config, ini, error) &&
                    resolveRunConfig(config, error))
            << error;
        EXPECT_FALSE(config.workload.empty());
    }
}

} // namespace
} // namespace morph
