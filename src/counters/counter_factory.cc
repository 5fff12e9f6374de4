#include "counters/counter_factory.hh"

#include "common/log.hh"
#include "counters/morph_counter.hh"
#include "counters/rebased_split_counter.hh"
#include "counters/split_counter.hh"

namespace morph
{

namespace
{

template <typename Format, auto... Args>
std::unique_ptr<CounterFormat>
makeFormat()
{
    return std::make_unique<Format>(Args...);
}

/** One counter kind: its display name, arity and codec. */
struct CounterKindRow
{
    CounterKind kind;
    const char *name;
    unsigned arity;
    std::unique_ptr<CounterFormat> (*make)();
};

const CounterKindRow counterKinds[] = {
    {CounterKind::SC8, "SC-8", 8, &makeFormat<SplitCounterFormat, 8u>},
    {CounterKind::SC16, "SC-16", 16,
     &makeFormat<SplitCounterFormat, 16u>},
    {CounterKind::SC32, "SC-32", 32,
     &makeFormat<SplitCounterFormat, 32u>},
    {CounterKind::SC64, "SC-64", 64,
     &makeFormat<SplitCounterFormat, 64u>},
    {CounterKind::SC128, "SC-128", 128,
     &makeFormat<SplitCounterFormat, 128u>},
    {CounterKind::MorphZccOnly, "MorphCtr-128-ZCC", 128,
     &makeFormat<MorphableCounterFormat, false>},
    {CounterKind::Morph, "MorphCtr-128", 128,
     &makeFormat<MorphableCounterFormat, true>},
    {CounterKind::MorphSingleBase, "MorphCtr-128-SB", 128,
     &makeFormat<MorphableCounterFormat, true, false>},
    {CounterKind::SC64Rebased, "SC-64+R", 64,
     &makeFormat<RebasedSplitCounterFormat, 64u>},
};

const CounterKindRow &
rowOf(CounterKind kind)
{
    for (const CounterKindRow &row : counterKinds) {
        if (row.kind == kind)
            return row;
    }
    panic("unknown counter kind %d", int(kind));
}

} // namespace

std::unique_ptr<CounterFormat>
makeCounterFormat(CounterKind kind)
{
    return rowOf(kind).make();
}

unsigned
counterArity(CounterKind kind)
{
    return rowOf(kind).arity;
}

std::string
counterKindName(CounterKind kind)
{
    return rowOf(kind).name;
}

} // namespace morph
