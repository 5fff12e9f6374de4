#include "integrity/tree_geometry.hh"

#include <bit>

#include "common/log.hh"

namespace morph
{

TreeGeometry::TreeGeometry(std::uint64_t mem_bytes,
                           const TreeConfig &config)
    : memBytes_(mem_bytes), config_(config)
{
    if (mem_bytes == 0 || mem_bytes % lineBytes != 0)
        fatal("tree geometry: memory size must be a multiple of 64 B");
    dataLines_ = mem_bytes / lineBytes;

    // Level sizes: level 0 covers data lines; each level above covers
    // the entries of the level below, until one entry remains (root).
    std::uint64_t covered = dataLines_;
    unsigned level = 0;
    while (true) {
        LevelInfo info;
        info.level = level;
        info.kind = config_.kindAt(level);
        info.arity = counterArity(info.kind);
        if (!std::has_single_bit(info.arity))
            panic("tree geometry: level %u arity %u is not a power of 2",
                  level, info.arity);
        info.arityLog2 = unsigned(std::countr_zero(info.arity));
        info.entries = (covered + info.arity - 1) / info.arity;
        info.bytes = info.entries * lineBytes;
        info.baseLine = 0; // assigned below
        levels_.push_back(info);
        if (info.entries <= 1)
            break;
        covered = info.entries;
        ++level;
        if (level > 32)
            panic("tree geometry: runaway level recursion");
    }

    // Physical placement: metadata slabs immediately above the data.
    LineAddr next = dataLines_;
    for (auto &info : levels_) {
        info.baseLine = next;
        next += info.entries;
    }
}

std::uint64_t
TreeGeometry::treeBytes() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < levels_.size(); ++i)
        total += levels_[i].bytes;
    return total;
}

std::uint64_t
TreeGeometry::totalBytes() const
{
    std::uint64_t total = memBytes_;
    for (const auto &info : levels_)
        total += info.bytes;
    return total;
}

bool
TreeGeometry::entryOfLine(LineAddr line, unsigned &level,
                          std::uint64_t &index) const
{
    for (const auto &info : levels_) {
        if (line >= info.baseLine && line < info.baseLine + info.entries) {
            level = info.level;
            index = line - info.baseLine;
            return true;
        }
    }
    return false;
}

} // namespace morph
