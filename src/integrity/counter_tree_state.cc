#include "integrity/counter_tree_state.hh"

namespace morph
{

CounterTreeState::CounterTreeState(std::uint64_t mem_bytes,
                                   const TreeConfig &config)
    : geom_(mem_bytes, config)
{
    const auto &levels = geom_.levels();
    formats_.reserve(levels.size());
    store_.resize(levels.size());
    memo_.resize(levels.size());
    for (const auto &info : levels)
        formats_.push_back(makeCounterFormat(info.kind));
}

} // namespace morph
