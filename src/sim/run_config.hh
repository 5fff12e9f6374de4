/**
 * @file
 * The simulator's settings, defined once.
 *
 * A setting reaches the simulator as a morphsim flag or as a key of an
 * INI file (morphsim --config-file). Each row of the settings table
 * names the INI key, the morphsim flag (if any), and the one parser and
 * range its value must pass, so a flag and its key cannot accept
 * different values. resolveRunConfig() then checks what no single value
 * can: that names name something and that a trace file loads.
 *
 * Nothing here calls fatal() or exits. Every check returns false with
 * an error message, and the caller picks the exit code.
 */

#ifndef MORPH_SIM_RUN_CONFIG_HH
#define MORPH_SIM_RUN_CONFIG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ini.hh"
#include "sim/simulator.hh"
#include "workloads/trace_file.hh"

namespace morph
{

/** Everything one simulator run is configured by. */
struct RunConfig
{
    std::string workload;             ///< workload or mix name
    std::string tracePath;            ///< trace file replayed instead
    std::string configName = "morph"; ///< named tree configuration
    SecureModelConfig secmem;         ///< .tree set by resolveRunConfig
    SimOptions options;
    /** tracePath's events, loaded once by resolveRunConfig; copies of
     *  the config share them. */
    std::shared_ptr<const FileTraceSource> trace;

    /** Field-wise: two equal configs simulate the same run. */
    bool operator==(const RunConfig &) const = default;
};

/** How a setting's value is parsed, and which values it accepts. */
enum class SettingType
{
    Name,    ///< any text; resolveRunConfig checks what it names
    Count,   ///< decimal integer in [min, max]
    Number,  ///< finite number >= min
    MemGb,   ///< GB, a whole number of 64-B lines, at least 1 MiB
    Bool,    ///< 1/true/yes/on or 0/false/no/off, any case
    Persist, ///< strict, lazy or off
};

/** A value that passed its setting's parser and range. */
struct SettingValue
{
    std::string text;        ///< the value as given
    std::uint64_t count = 0; ///< Count; MemGb in bytes
    double number = 0;       ///< Number
    bool on = false;         ///< Bool
};

/** One row of the settings table. */
struct Setting
{
    const char *key;  ///< INI "section.key"
    const char *flag; ///< morphsim flag; nullptr if INI-only
    SettingType type;
    std::uint64_t min = 0;          ///< Count, Number lower bound
    std::uint64_t max = UINT64_MAX; ///< Count upper bound
    /** Store a checked value into a configuration. */
    void (*store)(RunConfig &config, const SettingValue &value) = nullptr;
    /** The flag takes no value and means "true". */
    bool presence = false;
};

/** Every simulator setting, in documentation order. */
const std::vector<Setting> &runSettings();

/** The setting whose morphsim flag is @p flag, or nullptr. */
const Setting *findSettingFlag(const std::string &flag);

/** Check @p text against @p setting and store it into @p config; false
 *  with @p error naming the flag otherwise. A presence flag ignores
 *  @p text. */
bool applyFlag(RunConfig &config, const Setting &setting,
               const char *text, std::string &error);

/** Apply every key of @p ini to its setting (the last assignment of a
 *  key wins); false with @p error naming the file and key on the first
 *  bad value or, if every value is good, on the first key (in file
 *  order) that names no setting. */
bool applyIni(RunConfig &config, const IniFile &ini, std::string &error);

/** Check the names, load the trace file into config.trace (every
 *  record must parse and every line address lie inside
 *  secmem.memBytes), and set secmem.tree from the config name; false
 *  with @p error otherwise. */
bool resolveRunConfig(RunConfig &config, std::string &error);

/** Simulate a resolved @p config: the trace it loaded if it names a
 *  trace file, else its workload or mix. @copydetails runByName */
SimResult simulate(const RunConfig &config, MorphScope *scope = nullptr);

} // namespace morph

#endif // MORPH_SIM_RUN_CONFIG_HH
