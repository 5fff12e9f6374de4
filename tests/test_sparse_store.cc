/**
 * @file
 * Tests for SparseStore: a seeded differential against std::map,
 * reference stability across growth, and insertion-order iteration.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sparse_store.hh"
#include "common/types.hh"

namespace morph
{
namespace
{

/** Keys from a dense range (many hits) and the full 64-bit space. */
std::uint64_t
drawKey(Rng &rng)
{
    return rng.below(4) == 0 ? rng.next() : rng.below(1u << 15);
}

TEST(SparseStore, DifferentialAgainstStdMap)
{
    Rng rng(0x5a17e);
    SparseStore<std::uint64_t> store;
    std::map<std::uint64_t, std::uint64_t> reference;
    std::size_t growths = 0;
    std::size_t last_size = 0;

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = drawKey(rng);
        switch (rng.below(5)) {
          case 0: { // insert or overwrite through operator[]
            const std::uint64_t value = rng.next();
            store[key] = value;
            reference[key] = value;
            break;
          }
          case 1: { // read-modify-write an existing or new key
            store[key] += 3;
            reference[key] += 3;
            break;
          }
          case 2: { // find
            const std::uint64_t *found = store.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(found != nullptr, it != reference.end()) << key;
            if (found) {
                ASSERT_EQ(*found, it->second) << key;
            }
            break;
          }
          case 3: // contains
            ASSERT_EQ(store.contains(key), reference.count(key) == 1);
            break;
          default: { // find through a const view
            const auto &view = store;
            const std::uint64_t *found = view.find(key);
            ASSERT_EQ(found != nullptr, reference.count(key) == 1);
            break;
          }
        }
        ASSERT_EQ(store.size(), reference.size());
        // Count doublings of the size: each one grows the index (kept
        // at most 3/4 full) and adds an arena chunk at least once.
        if (std::bit_width(store.size()) != std::bit_width(last_size))
            ++growths;
        last_size = store.size();
    }
    EXPECT_GE(growths, 10u);

    std::size_t visited = 0;
    for (const auto &e : store) {
        const auto it = reference.find(e.key);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(e.value, it->second);
        ++visited;
    }
    EXPECT_EQ(visited, reference.size());
}

TEST(SparseStore, ReferencesSurviveGrowth)
{
    SparseStore<CachelineData> store;
    std::vector<CachelineData *> refs;
    for (std::uint64_t key = 0; key < 20; ++key) {
        CachelineData &image = store[key * 977];
        image.fill(std::uint8_t(key + 1));
        refs.push_back(&image);
    }
    // Many growths of both the index and the arena.
    for (std::uint64_t key = 1; key <= 50000; ++key)
        store[key * 977 + 1][0] = std::uint8_t(key);

    for (std::uint64_t key = 0; key < 20; ++key) {
        EXPECT_EQ(store.find(key * 977), refs[key]);
        CachelineData expected;
        expected.fill(std::uint8_t(key + 1));
        EXPECT_EQ(*refs[key], expected);
    }
}

TEST(SparseStore, IterationFollowsInsertionOrder)
{
    Rng rng(11);
    SparseStore<int> store;
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.below(3000) * 0x9e3779b9ull;
        if (!store.contains(key))
            order.push_back(key);
        store[key] = i; // overwrites keep the first position
    }
    std::vector<std::uint64_t> seen;
    for (const auto &e : store)
        seen.push_back(e.key);
    EXPECT_EQ(seen, order);
}

TEST(SparseStore, AbsentKeysAndValueInitialization)
{
    SparseStore<CachelineData> store;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.find(7), nullptr);
    EXPECT_FALSE(store.contains(0));
    EXPECT_EQ(store[~std::uint64_t(0)], CachelineData{});
    EXPECT_TRUE(store.contains(~std::uint64_t(0)));
    EXPECT_EQ(store.size(), 1u);
}

TEST(SparseStore, OwnsNonTrivialValuesAndMoves)
{
    std::vector<SparseStore<std::string>> stores(2);
    for (std::uint64_t key = 0; key < 1000; ++key)
        stores[0][key] = std::string(40, char('a' + key % 26));
    stores.resize(8); // relocates the stores: moves, not copies
    SparseStore<std::string> moved = std::move(stores[0]);
    ASSERT_EQ(moved.size(), 1000u);
    EXPECT_EQ(*moved.find(27), std::string(40, 'b'));
    EXPECT_EQ(stores[0].size(), 0u);
}

} // namespace
} // namespace morph
