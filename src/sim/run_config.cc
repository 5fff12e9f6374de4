#include "sim/run_config.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/parse.hh"

namespace morph
{

const std::vector<Setting> &
runSettings()
{
    using T = SettingType;
    using C = RunConfig;
    using V = SettingValue;
    static const std::vector<Setting> table = {
        {.key = "system.workload", .flag = "--workload", .type = T::Name,
         .store = [](C &c, const V &v) { c.workload = v.text; }},
        {.key = "system.trace", .flag = "--trace", .type = T::Name,
         .store = [](C &c, const V &v) { c.tracePath = v.text; }},
        {.key = "system.config", .flag = "--config", .type = T::Name,
         .store = [](C &c, const V &v) { c.configName = v.text; }},
        {.key = "system.mem_gb", .flag = "--mem-gb", .type = T::MemGb,
         .store = [](C &c, const V &v) { c.secmem.memBytes = v.count; }},
        {.key = "system.cache_kb", .flag = "--cache-kb", .type = T::Count,
         .min = 1, .max = 1ull << 30,
         .store = [](C &c, const V &v) {
             c.secmem.metadataCacheBytes = std::size_t(v.count) * 1024;
         }},
        {.key = "system.accesses", .flag = "--accesses", .type = T::Count,
         .min = 1,
         .store = [](C &c, const V &v) {
             c.options.accessesPerCore = v.count;
         }},
        {.key = "system.warmup", .flag = "--warmup", .type = T::Count,
         .store = [](C &c, const V &v) {
             c.options.warmupPerCore = v.count;
         }},
        // makeWorkloadTrace divides footprints by the scale and
        // requires it to be >= 1.
        {.key = "system.scale", .flag = "--scale", .type = T::Number,
         .min = 1,
         .store = [](C &c, const V &v) {
             c.options.footprintScale = v.number;
         }},
        {.key = "system.seed", .flag = "--seed", .type = T::Count,
         .store = [](C &c, const V &v) { c.options.seed = v.count; }},
        {.key = "system.timing", .flag = "--timing", .type = T::Bool,
         .store = [](C &c, const V &v) { c.options.timing = v.on; }},
        {.key = "controller.separate_macs", .flag = "--separate-macs",
         .type = T::Bool,
         .store = [](C &c, const V &v) { c.secmem.inlineMacs = !v.on; },
         .presence = true},
        {.key = "controller.spec_verify", .flag = "--spec-verify",
         .type = T::Bool,
         .store = [](C &c, const V &v) {
             c.secmem.speculativeVerification = v.on;
         },
         .presence = true},
        {.key = "controller.ctr_prefetch", .flag = "--ctr-prefetch",
         .type = T::Bool,
         .store = [](C &c, const V &v) { c.secmem.counterPrefetch = v.on; },
         .presence = true},
        {.key = "controller.demote_enc", .flag = "--demote-enc",
         .type = T::Bool,
         .store = [](C &c, const V &v) { c.secmem.demoteEncCounters = v.on; },
         .presence = true},
        {.key = "persist.mode", .flag = "--persist", .type = T::Persist,
         .store = [](C &c, const V &v) {
             c.secmem.persist.enabled = v.text != "off";
             if (v.text != "off")
                 c.secmem.persist.policy = v.text == "lazy"
                                               ? PersistPolicy::Lazy
                                               : PersistPolicy::Strict;
         }},
        {.key = "persist.epoch_writes", .flag = "--persist-epoch",
         .type = T::Count, .min = 1,
         .store = [](C &c, const V &v) {
             c.secmem.persist.epochWrites = v.count;
         }},
        {.key = "dram.refresh", .flag = nullptr, .type = T::Bool,
         .store = [](C &c, const V &v) { c.options.dram.refresh = v.on; }},
        {.key = "dram.write_queueing", .flag = nullptr, .type = T::Bool,
         .store = [](C &c, const V &v) {
             c.options.dram.writeQueueing = v.on;
         }},
        // 0 channels or ranks would divide by zero in the address
        // decoder.
        {.key = "dram.channels", .flag = nullptr, .type = T::Count,
         .min = 1, .max = 16,
         .store = [](C &c, const V &v) {
             c.options.dram.channels = unsigned(v.count);
         }},
        {.key = "dram.ranks", .flag = nullptr, .type = T::Count, .min = 1,
         .max = 16,
         .store = [](C &c, const V &v) {
             c.options.dram.ranksPerChannel = unsigned(v.count);
         }},
    };
    return table;
}

const Setting *
findSettingFlag(const std::string &flag)
{
    for (const Setting &setting : runSettings())
        if (setting.flag != nullptr && flag == setting.flag)
            return &setting;
    return nullptr;
}

namespace
{

/** The smallest protected memory. Below 16 KiB the four cores'
 *  workload regions no longer hold a page each and the trace
 *  generators abort; 1 MiB keeps well clear of that. */
constexpr std::uint64_t minMemBytes = 1ull << 20;

/** What @p setting accepts, in words ("an integer in [1, 16]"). */
std::string
settingRange(const Setting &setting)
{
    switch (setting.type) {
    case SettingType::Name:
        return "a non-empty name";
    case SettingType::Count:
        if (setting.max == UINT64_MAX)
            return "an integer >= " + std::to_string(setting.min);
        return "an integer in [" + std::to_string(setting.min) + ", " +
               std::to_string(setting.max) + "]";
    case SettingType::Number:
        return "a number >= " + std::to_string(setting.min);
    case SettingType::MemGb:
        return "a number of GB that is a whole number of 64-B lines, "
               "at least 1 MiB";
    case SettingType::Bool:
        return "a boolean (1/0, true/false, yes/no, on/off)";
    case SettingType::Persist:
        return "strict, lazy or off";
    }
    return "";
}

/** Parse @p text by @p setting's type and check its range. */
bool
parseSetting(const Setting &setting, const char *text, SettingValue &out)
{
    out.text = text;
    switch (setting.type) {
    case SettingType::Name:
        return !out.text.empty();
    case SettingType::Count: {
        const std::optional<std::uint64_t> v = parseCount(text);
        out.count = v.value_or(0);
        return v && *v >= setting.min && *v <= setting.max;
    }
    case SettingType::Number: {
        const std::optional<double> v = parseNumber(text);
        out.number = v.value_or(0);
        return v && *v >= double(setting.min);
    }
    case SettingType::MemGb: {
        // Scaling by 2^30 is exact, so a byte count with a fraction
        // or a partial line is the value's fault, not rounding's.
        const std::optional<double> gb = parsePositive(text);
        const double bytes = gb ? *gb * double(1ull << 30) : 0;
        if (!gb || bytes >= 0x1p63 || bytes != std::floor(bytes))
            return false;
        out.count = std::uint64_t(bytes);
        return out.count % lineBytes == 0 && out.count >= minMemBytes;
    }
    case SettingType::Bool: {
        const std::optional<bool> v = parseBool(text);
        out.on = v.value_or(false);
        return v.has_value();
    }
    case SettingType::Persist:
        return out.text == "strict" || out.text == "lazy" ||
               out.text == "off";
    }
    return false;
}

} // namespace

bool
applyFlag(RunConfig &config, const Setting &setting, const char *text,
          std::string &error)
{
    SettingValue value;
    if (!parseSetting(setting, setting.presence ? "1" : text, value)) {
        error = std::string("option ") + setting.flag + " needs " +
                settingRange(setting) + " (got '" + text + "')";
        return false;
    }
    setting.store(config, value);
    return true;
}

bool
applyIni(RunConfig &config, const IniFile &ini, std::string &error)
{
    for (const Setting &setting : runSettings()) {
        if (!ini.has(setting.key))
            continue;
        const std::string text = ini.getString(setting.key);
        SettingValue value;
        if (!parseSetting(setting, text.c_str(), value)) {
            error = "config " + ini.name() + ": " + setting.key +
                    " needs " + settingRange(setting) + " (got '" +
                    text + "')";
            return false;
        }
        setting.store(config, value);
    }
    for (const std::string &key : ini.keys()) {
        bool known = false;
        for (const Setting &setting : runSettings())
            known = known || key == setting.key;
        if (!known) {
            error = "config " + ini.name() + ": unknown key '" + key + "'";
            return false;
        }
    }
    return true;
}

bool
resolveRunConfig(RunConfig &config, std::string &error)
{
    const TreeConfig *tree = findTreeConfig(config.configName);
    if (tree == nullptr) {
        error = "unknown config '" + config.configName +
                "' (--config, system.config)";
        return false;
    }
    config.secmem.tree = *tree;
    if (!config.workload.empty() && !findWorkload(config.workload) &&
        !findMix(config.workload)) {
        error = "unknown workload or mix '" + config.workload +
                "' (--workload, system.workload; see --list)";
        return false;
    }
    if (config.tracePath.empty())
        return true;
    if (!std::ifstream(config.tracePath)) {
        error = "cannot read trace file " + config.tracePath +
                " (--trace, system.trace)";
        return false;
    }
    // Every record must parse, and every line address must name a
    // line of the protected memory; the largest one decides.
    std::optional<FileTraceSource> trace =
        FileTraceSource::load(config.tracePath, error);
    if (!trace)
        return false;
    const FileTraceSource::Highest highest = trace->highest();
    const std::uint64_t lines = config.secmem.memBytes / lineBytes;
    if (highest.line >= lines) {
        char text[160];
        std::snprintf(text, sizeof(text),
                      ":%zu: line address %llx is past the %llu-line "
                      "protected memory (--mem-gb, system.mem_gb)",
                      highest.fileLine,
                      static_cast<unsigned long long>(highest.line),
                      static_cast<unsigned long long>(lines));
        error = "trace " + config.tracePath + text;
        return false;
    }
    config.trace =
        std::make_shared<const FileTraceSource>(std::move(*trace));
    return true;
}

} // namespace morph
