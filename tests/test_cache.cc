/**
 * @file
 * Unit tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace morph
{
namespace
{

TEST(Cache, Construction)
{
    Cache cache(128 * 1024, 8);
    EXPECT_EQ(cache.sizeBytes(), 128u * 1024);
    EXPECT_EQ(cache.ways(), 8u);
    EXPECT_EQ(cache.numSets(), 128u * 1024 / 64 / 8);
}

TEST(Cache, MissThenHit)
{
    Cache cache(4096, 4);
    EXPECT_FALSE(cache.access(1));
    cache.insert(1, false);
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruVictimSelection)
{
    // One set: 4 ways, 1 set (4 * 64 = 256 bytes).
    Cache cache(256, 4);
    for (LineAddr line = 0; line < 4; ++line)
        cache.insert(line, false);
    // Touch 0 so 1 becomes LRU.
    cache.access(0);
    const auto evicted = cache.insert(100, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 1u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(256, 4);
    cache.insert(1, true);
    for (LineAddr line = 2; line <= 4; ++line)
        cache.insert(line, false);
    const auto evicted = cache.insert(5, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 1u);
    EXPECT_TRUE(evicted->dirty);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteAccessSetsDirty)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    cache.access(1, true);
    const auto evicted = cache.invalidate(1);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->dirty);
}

TEST(Cache, MarkDirty)
{
    Cache cache(256, 4);
    EXPECT_FALSE(cache.markDirty(9));
    cache.insert(9, false);
    EXPECT_TRUE(cache.markDirty(9));
    EXPECT_TRUE(cache.invalidate(9)->dirty);
}

TEST(Cache, InsertExistingUpdatesDirtyOnly)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    const auto evicted = cache.insert(1, true);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_TRUE(cache.invalidate(1)->dirty);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, SetIsolation)
{
    // Lines mapping to different sets never evict each other.
    Cache cache(4096, 2); // 32 sets
    const std::size_t sets = cache.numSets();
    for (LineAddr line = 0; line < sets; ++line)
        EXPECT_FALSE(cache.insert(line, false).has_value());
    for (LineAddr line = 0; line < sets; ++line)
        EXPECT_TRUE(cache.contains(line));
}

TEST(Cache, ConflictWithinSet)
{
    Cache cache(4096, 2); // 32 sets, 2 ways
    const std::size_t sets = cache.numSets();
    // Three lines in the same set: first one evicted.
    cache.insert(0, false);
    cache.insert(sets, false);
    const auto evicted = cache.insert(2 * sets, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 0u);
}

TEST(Cache, ContainsDoesNotTouchLruOrStats)
{
    Cache cache(256, 2); // 2 sets: even lines map to set 0
    cache.insert(0, false);
    cache.insert(2, false);
    const auto hits = cache.stats().hits;
    // contains() must not promote line 0 to MRU.
    EXPECT_TRUE(cache.contains(0));
    EXPECT_EQ(cache.stats().hits, hits);
    const auto evicted = cache.insert(4, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 0u);
}

TEST(Cache, FlushDropsEverything)
{
    Cache cache(256, 4);
    for (LineAddr line = 0; line < 4; ++line)
        cache.insert(line, true);
    cache.flush();
    for (LineAddr line = 0; line < 4; ++line)
        EXPECT_FALSE(cache.contains(line));
}

TEST(Cache, ForEachVisitsValidLines)
{
    Cache cache(256, 4);
    cache.insert(1, true);
    cache.insert(2, false);
    unsigned count = 0, dirty = 0;
    cache.forEach([&](LineAddr, bool d) {
        ++count;
        dirty += d;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(dirty, 1u);
}

TEST(Cache, HitRate)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    cache.access(1);
    cache.access(2);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(CacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache(100, 3), ::testing::ExitedWithCode(1), "cache");
}

TEST(Cache, FillAfterMissPlacesLineAtReturnedWay)
{
    Cache cache(256, 4); // one set
    const Cache::Lookup miss = cache.lookup(7);
    EXPECT_FALSE(miss.hit);
    const Cache::Fill fill = cache.fill(7, false);
    EXPECT_FALSE(fill.evicted);
    EXPECT_EQ(fill.way, miss.way);
    const Cache::Lookup hit = cache.lookup(7);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.way, fill.way);
    EXPECT_TRUE(cache.markDirty(7, fill.way));
    EXPECT_EQ(cache.invalidate(7)->dirty, true);
    // A stale way falls back to a lookup: absent stays absent.
    EXPECT_FALSE(cache.markDirty(7, fill.way));
}

#if MORPH_DCHECK_IS_ON
TEST(CacheDeathTest, FillRejectsPresentLine)
{
    Cache cache(4096, 4);
    cache.insert(5, false);
    EXPECT_DEATH(cache.fill(5, false), "!peek\\(line\\)\\.hit");
}

TEST(CacheDeathTest, FillRejectsStaleVictim)
{
    Cache cache(256, 4); // one set
    const Cache::Lookup miss = cache.lookup(7);
    cache.insert(9, false); // takes the victim lookup() picked
    EXPECT_DEATH(cache.fill(7, false, InsertPosition::Mru, miss.way),
                 "peek\\(line\\)\\.way == victim");
}
#endif

/**
 * The array-of-structs cache the set-major Cache replaced, kept as the
 * differential oracle: one {line, lastUse, valid, dirty} record per way
 * and a modulo set index.
 */
class OracleCache
{
  public:
    OracleCache(std::size_t size_bytes, unsigned ways)
        : numSets_(size_bytes / (std::size_t(ways) * lineBytes)),
          ways_(ways), lines_(numSets_ * ways_)
    {}

    bool
    access(LineAddr line, bool write)
    {
        if (Way *way = find(line)) {
            way->lastUse = ++useClock_;
            way->dirty = way->dirty || write;
            ++stats_.hits;
            return true;
        }
        ++stats_.misses;
        return false;
    }

    bool contains(LineAddr line) { return find(line) != nullptr; }

    std::optional<Eviction>
    insert(LineAddr line, bool dirty, InsertPosition position)
    {
        if (Way *hit = find(line)) {
            hit->lastUse = ++useClock_;
            hit->dirty = hit->dirty || dirty;
            return std::nullopt;
        }
        Way *base = set(line);
        Way *victim = &base[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        std::optional<Eviction> evicted;
        if (victim->valid) {
            evicted = Eviction{victim->line, victim->dirty};
            ++stats_.evictions;
            if (victim->dirty)
                ++stats_.dirtyEvictions;
        }
        victim->line = line;
        victim->valid = true;
        victim->dirty = dirty;
        if (position == InsertPosition::Mru) {
            victim->lastUse = ++useClock_;
        } else {
            std::uint64_t lowest = ~std::uint64_t(0);
            for (unsigned w = 0; w < ways_; ++w)
                if (base[w].valid && &base[w] != victim)
                    lowest = std::min(lowest, base[w].lastUse);
            victim->lastUse = lowest == ~std::uint64_t(0) || lowest == 0
                                  ? 0
                                  : lowest - 1;
        }
        return evicted;
    }

    bool
    markDirty(LineAddr line)
    {
        Way *way = find(line);
        if (way)
            way->dirty = true;
        return way != nullptr;
    }

    std::optional<Eviction>
    invalidate(LineAddr line)
    {
        Way *way = find(line);
        if (!way)
            return std::nullopt;
        const Eviction ev{way->line, way->dirty};
        way->valid = false;
        way->dirty = false;
        return ev;
    }

    void
    flush()
    {
        for (Way &way : lines_)
            way.valid = way.dirty = false;
    }

    std::vector<std::pair<LineAddr, bool>>
    contents() const
    {
        std::vector<std::pair<LineAddr, bool>> out;
        for (const Way &way : lines_)
            if (way.valid)
                out.emplace_back(way.line, way.dirty);
        return out;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        LineAddr line = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Way *set(LineAddr line) { return &lines_[line % numSets_ * ways_]; }

    Way *
    find(LineAddr line)
    {
        Way *base = set(line);
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].line == line)
                return &base[w];
        return nullptr;
    }

    std::size_t numSets_;
    unsigned ways_;
    std::vector<Way> lines_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

void
expectSameEviction(const std::optional<Eviction> &got,
                   const std::optional<Eviction> &want, std::uint64_t op)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
    if (want) {
        EXPECT_EQ(got->line, want->line) << "op " << op;
        EXPECT_EQ(got->dirty, want->dirty) << "op " << op;
    }
}

/** Drive both caches with one seeded stream of every operation and
 *  require identical results, statistics and contents. */
void
runDifferential(std::size_t size_bytes, unsigned ways, std::uint64_t seed)
{
    constexpr std::uint64_t ops = 200000;
    Cache cache(size_bytes, ways);
    OracleCache oracle(size_bytes, ways);
    Rng rng(seed);
    // About three lines per way keeps sets under eviction pressure.
    const std::uint64_t pool = 3 * cache.numSets() * ways;

    // The last way lookup() or fill() returned, and its line: marking
    // through it later exercises both a live and a stale hint.
    LineAddr hinted_line = 0;
    Cache::Way hinted_way = Cache::npos;

    for (std::uint64_t op = 0; op < ops; ++op) {
        // Mostly pooled lines; now and then a far line with high bits.
        const LineAddr line =
            rng.chance(0.02) ? rng.next() >> 12 : rng.below(pool);
        const std::uint64_t kind = rng.below(100);
        const bool dirty = rng.chance(0.3);
        const InsertPosition position = rng.chance(0.25)
                                            ? InsertPosition::Lru
                                            : InsertPosition::Mru;
        if (kind < 25) {
            ASSERT_EQ(cache.access(line, dirty),
                      oracle.access(line, dirty)) << "op " << op;
        } else if (kind < 45) {
            // The controller's walk: one lookup, a fill on a miss (into
            // the victim the lookup picked, or one fill() picks), and
            // (sometimes) an immediate dirty mark through the result.
            const Cache::Lookup slot = cache.lookup(line, dirty);
            ASSERT_EQ(slot.hit, oracle.access(line, dirty)) << "op " << op;
            Cache::Way way = slot.hit ? slot.way : Cache::npos;
            if (!slot.hit && rng.chance(0.8)) {
                const Cache::Fill fill =
                    cache.fill(line, dirty, position,
                               rng.chance(0.5) ? slot.way : Cache::npos);
                expectSameEviction(fill.evicted,
                                   oracle.insert(line, dirty, position),
                                   op);
                way = fill.way;
            }
            if (way != Cache::npos) {
                hinted_line = line;
                hinted_way = way;
                if (rng.chance(0.3)) {
                    ASSERT_TRUE(cache.markDirty(line, way)) << "op " << op;
                    ASSERT_TRUE(oracle.markDirty(line)) << "op " << op;
                }
            }
        } else if (kind < 65) {
            expectSameEviction(cache.insert(line, dirty, position),
                               oracle.insert(line, dirty, position), op);
        } else if (kind < 73) {
            ASSERT_EQ(cache.markDirty(line), oracle.markDirty(line))
                << "op " << op;
        } else if (kind < 80) {
            ASSERT_EQ(cache.markDirty(hinted_line, hinted_way),
                      oracle.markDirty(hinted_line)) << "op " << op;
        } else if (kind < 90) {
            ASSERT_EQ(cache.contains(line), oracle.contains(line))
                << "op " << op;
        } else if (kind < 99 || !rng.chance(0.01)) {
            expectSameEviction(cache.invalidate(line),
                               oracle.invalidate(line), op);
        } else {
            cache.flush();
            oracle.flush();
        }

        const CacheStats &a = cache.stats();
        const CacheStats &b = oracle.stats();
        ASSERT_EQ(a.hits, b.hits) << "op " << op;
        ASSERT_EQ(a.misses, b.misses) << "op " << op;
        ASSERT_EQ(a.evictions, b.evictions) << "op " << op;
        ASSERT_EQ(a.dirtyEvictions, b.dirtyEvictions) << "op " << op;

        if (op % 997 == 0 || op + 1 == ops) {
            std::vector<std::pair<LineAddr, bool>> seen;
            cache.forEach([&](LineAddr l, bool d) {
                seen.emplace_back(l, d);
            });
            ASSERT_EQ(seen, oracle.contents()) << "op " << op;
        }
    }
    // The stream must have exercised hits, evictions and both kinds.
    EXPECT_GT(cache.stats().hits, ops / 20);
    EXPECT_GT(cache.stats().dirtyEvictions, ops / 100);
    EXPECT_GT(cache.stats().evictions - cache.stats().dirtyEvictions,
              ops / 100);
}

TEST(CacheDifferential, PowerOfTwoSetsMatchOracle)
{
    Cache probe(4096, 4);
    ASSERT_EQ(probe.numSets(), 16u);
    runDifferential(4096, 4, 0x5eed);
}

TEST(CacheDifferential, NonPowerOfTwoSetsMatchOracle)
{
    // system.cache_kb = 96 at 8 ways: 192 sets, a modulo set index.
    Cache probe(96 * 1024, 8);
    ASSERT_EQ(probe.numSets(), 192u);
    runDifferential(96 * 1024, 8, 0xc0ffee);
}

} // namespace
} // namespace morph
