/**
 * @file
 * Minimal INI-style configuration files (USIMM reads its system and
 * power parameters from files; morphsim does the same).
 *
 * Grammar:
 *
 *     ; comment       # comment
 *     [section]
 *     key = value
 *
 * Keys outside any section live in the "" section. Lookups are by
 * "section.key" (or bare "key" for the default section). Values are
 * plain strings: what a value means, and which values are valid, is
 * the caller's business (sim/run_config.hh for simulator settings).
 * Keys can be enumerated so callers can reject typos.
 */

#ifndef MORPH_COMMON_INI_HH
#define MORPH_COMMON_INI_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace morph
{

/** A parsed INI file. */
class IniFile
{
  public:
    IniFile() = default;

    /** Parse a file from disk into @p out; false with @p error set
     *  if the file cannot be read or has a syntax error. */
    static bool fromFile(const std::string &path, IniFile &out,
                         std::string &error);

    /** Parse from a stream into @p out; false with @p error set on a
     *  syntax error. @p name labels error messages. */
    static bool fromStream(std::istream &input, const std::string &name,
                           IniFile &out, std::string &error);

    /** True if "section.key" (or "key") is present. */
    bool has(const std::string &dotted_key) const;

    /** String value; @p fallback if absent. */
    std::string getString(const std::string &dotted_key,
                          const std::string &fallback = "") const;

    /** All keys, dotted, in file order (for typo checking). */
    const std::vector<std::string> &keys() const { return order_; }

    /** The file name (or stream label) for error messages. */
    const std::string &name() const { return name_; }

  private:
    const std::string *find(const std::string &dotted_key) const;

    std::vector<std::string> order_;
    std::vector<std::pair<std::string, std::string>> values_;
    std::string name_ = "<none>";
};

} // namespace morph

#endif // MORPH_COMMON_INI_HH
