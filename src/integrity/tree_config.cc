#include "integrity/tree_config.hh"

#include "common/check.hh"

namespace morph
{

CounterKind
TreeConfig::kindAt(unsigned level) const
{
    if (level == 0)
        return encryption;
    MORPH_CHECK(!treeLevels.empty());
    const std::size_t i = std::min<std::size_t>(level - 1,
                                                treeLevels.size() - 1);
    return treeLevels[i];
}

unsigned
TreeConfig::arityAt(unsigned level) const
{
    return counterArity(kindAt(level));
}

TreeConfig
TreeConfig::sgx()
{
    return {"SGX", CounterKind::SC8, {CounterKind::SC8}};
}

TreeConfig
TreeConfig::vault()
{
    return {"VAULT", CounterKind::SC64,
            {CounterKind::SC32, CounterKind::SC16}};
}

TreeConfig
TreeConfig::sc64()
{
    return {"SC-64", CounterKind::SC64, {CounterKind::SC64}};
}

TreeConfig
TreeConfig::sc128()
{
    return {"SC-128", CounterKind::SC128, {CounterKind::SC128}};
}

TreeConfig
TreeConfig::morph()
{
    return {"MorphCtr-128", CounterKind::Morph, {CounterKind::Morph}};
}

TreeConfig
TreeConfig::morphZccOnly()
{
    return {"MorphCtr-128-ZCC", CounterKind::MorphZccOnly,
            {CounterKind::MorphZccOnly}};
}

TreeConfig
TreeConfig::sc64Rebased()
{
    return {"SC-64+R", CounterKind::SC64Rebased,
            {CounterKind::SC64Rebased}};
}

TreeConfig
TreeConfig::bonsaiMacTree()
{
    return {"BMT-8", CounterKind::SC64, {CounterKind::SC8}};
}

const std::vector<NamedTreeConfig> &
namedTreeConfigs()
{
    static const std::vector<NamedTreeConfig> table = {
        {"sc64", TreeConfig::sc64()},
        {"vault", TreeConfig::vault()},
        {"morph", TreeConfig::morph()},
        {"morph-zcc", TreeConfig::morphZccOnly()},
        {"sc128", TreeConfig::sc128()},
        {"sgx", TreeConfig::sgx()},
        {"bmt", TreeConfig::bonsaiMacTree()},
    };
    return table;
}

const TreeConfig *
findTreeConfig(const std::string &name)
{
    for (const NamedTreeConfig &named : namedTreeConfigs())
        if (name == named.name)
            return &named.config;
    return nullptr;
}

} // namespace morph
