#include "analysis/batch.hh"

#include <algorithm>

namespace morph::analysis
{

BatchAnalyzer::BatchAnalyzer(const std::vector<SourceText> &sources,
                             LexCache *cache)
{
    // std::map entries are address-stable, so units may keep pointers
    // into either cache.
    LexCache &lexed = cache ? *cache : ownLex_;
    units_.reserve(sources.size());
    for (const SourceText &src : sources) {
        FileUnit unit;
        unit.meta = src;
        unit.lexed = &lexed.get(src.path, src.path, src.text);
        unit.model = buildModel(*unit.lexed);
        units_.push_back(std::move(unit));
    }
}

void
BatchAnalyzer::report(const FileUnit &unit, const std::string &rule,
                      unsigned line, const std::string &symbol,
                      const std::string &message)
{
    const std::string key = unit.meta.path + ":" + std::to_string(line) +
                            ":" + rule + ":" + symbol;
    if (!reported_.insert(key).second)
        return;
    Finding f;
    f.rule = rule;
    f.file = unit.meta.path;
    f.symbol = symbol;
    f.message = message;
    f.line = line;
    f.waived = unit.model.waived(rule, line);
    (f.waived ? result_.waived : result_.findings).push_back(std::move(f));
}

AnalysisResult
BatchAnalyzer::takeResult()
{
    const auto order = [](const Finding &a, const Finding &b) {
        if (a.file != b.file)
            return a.file < b.file;
        if (a.line != b.line)
            return a.line < b.line;
        if (a.rule != b.rule)
            return a.rule < b.rule;
        return a.symbol < b.symbol;
    };
    std::sort(result_.findings.begin(), result_.findings.end(), order);
    std::sort(result_.waived.begin(), result_.waived.end(), order);
    return std::move(result_);
}

} // namespace morph::analysis
