#include "common/ini.hh"

#include <cctype>
#include <cstdint>
#include <fstream>

namespace morph
{

namespace
{

std::string
trim(const std::string &text)
{
    std::size_t begin = 0, end = text.size();
    while (begin < end && std::isspace(std::uint8_t(text[begin])))
        ++begin;
    while (end > begin && std::isspace(std::uint8_t(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

} // namespace

bool
IniFile::fromFile(const std::string &path, IniFile &out,
                  std::string &error)
{
    std::ifstream input(path);
    if (!input) {
        error = "cannot read " + path;
        return false;
    }
    return fromStream(input, path, out, error);
}

bool
IniFile::fromStream(std::istream &input, const std::string &name,
                    IniFile &out, std::string &error)
{
    IniFile ini;
    ini.name_ = name;

    std::string line;
    std::string section;
    std::size_t line_number = 0;
    const auto bad = [&](const char *what) {
        error = name + ":" + std::to_string(line_number) + ": " + what;
        return false;
    };
    while (std::getline(input, line)) {
        ++line_number;
        const std::size_t comment = line.find_first_of(";#");
        if (comment != std::string::npos)
            line.erase(comment);
        line = trim(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return bad("unterminated section");
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return bad("expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            return bad("empty key");
        const std::string dotted =
            section.empty() ? key : section + "." + key;
        ini.order_.push_back(dotted);
        ini.values_.emplace_back(dotted, value);
    }
    out = std::move(ini);
    return true;
}

const std::string *
IniFile::find(const std::string &dotted_key) const
{
    // Last assignment wins, as users expect from override files.
    const std::string *found = nullptr;
    for (const auto &kv : values_)
        if (kv.first == dotted_key)
            found = &kv.second;
    return found;
}

bool
IniFile::has(const std::string &dotted_key) const
{
    return find(dotted_key) != nullptr;
}

std::string
IniFile::getString(const std::string &dotted_key,
                   const std::string &fallback) const
{
    const std::string *value = find(dotted_key);
    return value ? *value : fallback;
}

} // namespace morph
