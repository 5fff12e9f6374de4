/**
 * @file
 * Sparse store of values keyed by 64-bit line or entry indices.
 *
 * The functional tree, the MAC tree, the functional line store and the
 * cycle model all keep sparse images of a huge, mostly untouched
 * address space. SparseStore<V> is their one store. It has two parts:
 *
 *  - an arena of {key, value} entries in fixed chunks of 16-32 KB.
 *    Entries are appended and never move, so a reference to a value
 *    stays valid for the life of the store, across any number of
 *    later insertions, and iteration visits entries in insertion
 *    order;
 *  - an open-addressed index of 8-byte slots {arena position, hash
 *    tag}, linear-probed and kept at most 3/4 full. Growth rebuilds
 *    only the index; the arena is not touched.
 *
 * There is no heap node per entry, and no erase: every user only ever
 * materializes entries. Chunks are small and all one size, so a store
 * holds at most one partly filled chunk, and chunks freed by one store
 * are reused whole by the next.
 */

#ifndef MORPH_COMMON_SPARSE_STORE_HH
#define MORPH_COMMON_SPARSE_STORE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hh"

namespace morph
{

template <typename V>
class SparseStore
{
  public:
    /** One stored entry; the arena holds these in insertion order. */
    struct Entry
    {
        std::uint64_t key;
        V value;
    };

    SparseStore() = default;
    SparseStore(const SparseStore &) = delete;
    SparseStore &operator=(const SparseStore &) = delete;
    SparseStore &operator=(SparseStore &&) = delete;

    /** Takes over @p other's arena and index, leaving it empty. */
    SparseStore(SparseStore &&other) noexcept
        : chunks_(std::move(other.chunks_)),
          index_(std::move(other.index_)),
          size_(std::exchange(other.size_, 0)),
          shift_(std::exchange(other.shift_, 64))
    {
    }

    ~SparseStore()
    {
        if constexpr (!std::is_trivially_destructible_v<Entry>) {
            for (std::uint32_t pos = 0; pos < size_; ++pos)
                std::destroy_at(&at(pos));
        }
        for (Entry *chunk : chunks_)
            std::allocator<Entry>().deallocate(chunk, chunkEntries);
    }

    std::size_t size() const { return size_; }

    /** The value stored under @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        const std::uint32_t pos = lookup(key);
        return pos == emptyPos ? nullptr : &at(pos).value;
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::uint32_t pos = lookup(key);
        return pos == emptyPos ? nullptr : &at(pos).value;
    }

    bool contains(std::uint64_t key) const
    {
        return lookup(key) != emptyPos;
    }

    /** The value under @p key, value-initialized first if absent. */
    V &
    operator[](std::uint64_t key)
    {
        if ((std::size_t(size_) + 1) * 4 > index_.size() * 3)
            growIndex();
        const std::uint64_t h = mix(key);
        const std::uint32_t tag = std::uint32_t(h);
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = h >> shift_;; i = (i + 1) & mask) {
            Slot &slot = index_[i];
            if (slot.pos == emptyPos) {
                slot = {size_, tag};
                return append(key);
            }
            if (slot.tag == tag && at(slot.pos).key == key)
                return at(slot.pos).value;
        }
    }

    /** Insertion-order iteration over Entry (key, value). */
    template <bool Const>
    class Iterator
    {
        using Store = std::conditional_t<Const, const SparseStore,
                                         SparseStore>;
        using Ref = std::conditional_t<Const, const Entry &, Entry &>;

      public:
        Iterator(Store *store, std::uint32_t pos)
            : store_(store), pos_(pos) {}
        Ref operator*() const { return store_->at(pos_); }

        Iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }

        bool operator==(const Iterator &) const = default;

      private:
        Store *store_;
        std::uint32_t pos_;
    };

    Iterator<false> begin() { return {this, 0}; }
    Iterator<false> end() { return {this, size_}; }
    Iterator<true> begin() const { return {this, 0}; }
    Iterator<true> end() const { return {this, size_}; }

  private:
    /** Index slot: arena position (emptyPos if free) + low hash bits. */
    struct Slot
    {
        std::uint32_t pos;
        std::uint32_t tag;
    };

    static constexpr std::uint32_t emptyPos = ~std::uint32_t(0);
    /** The largest power-of-two entry count fitting 32 KB. */
    static constexpr unsigned chunkLog2 =
        unsigned(std::bit_width(32768 / sizeof(Entry))) - 1;
    static constexpr std::size_t chunkEntries = std::size_t(1)
                                                << chunkLog2;
    static constexpr std::size_t minIndexSlots = 16;

    /** murmur3 finalizer: the index takes the high bits, the tag the
     *  low 32. */
    static std::uint64_t
    mix(std::uint64_t k)
    {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdull;
        k ^= k >> 33;
        k *= 0xc4ceb9fe1a85ec53ull;
        k ^= k >> 33;
        return k;
    }

    Entry &
    at(std::uint32_t pos) const
    {
        return chunks_[pos >> chunkLog2][pos & (chunkEntries - 1)];
    }

    std::uint32_t
    lookup(std::uint64_t key) const
    {
        if (index_.empty())
            return emptyPos;
        const std::uint64_t h = mix(key);
        const std::uint32_t tag = std::uint32_t(h);
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = h >> shift_;; i = (i + 1) & mask) {
            const Slot &slot = index_[i];
            if (slot.pos == emptyPos)
                return emptyPos;
            if (slot.tag == tag && at(slot.pos).key == key)
                return slot.pos;
        }
    }

    /** Construct the entry at position size_ (its slot is set). */
    V &
    append(std::uint64_t key)
    {
        MORPH_CHECK_LT(size_, emptyPos - 1);
        if (size_ % chunkEntries == 0) // the last chunk is full
            chunks_.push_back(
                std::allocator<Entry>().allocate(chunkEntries));
        Entry *entry = ::new (static_cast<void *>(&at(size_)))
            Entry{key, V{}};
        ++size_;
        return entry->value;
    }

    /** Double the index (or create it) and re-slot every entry. */
    void
    growIndex()
    {
        const std::size_t slots =
            index_.empty() ? minIndexSlots : index_.size() * 2;
        index_.assign(slots, Slot{emptyPos, 0});
        shift_ = 64 - unsigned(std::countr_zero(slots));
        const std::size_t mask = slots - 1;
        for (std::uint32_t pos = 0; pos < size_; ++pos) {
            const std::uint64_t h = mix(at(pos).key);
            std::size_t i = h >> shift_;
            while (index_[i].pos != emptyPos)
                i = (i + 1) & mask;
            index_[i] = {pos, std::uint32_t(h)};
        }
    }

    std::vector<Entry *> chunks_;
    std::vector<Slot> index_;
    std::uint32_t size_ = 0;
    unsigned shift_ = 64;
};

} // namespace morph

#endif // MORPH_COMMON_SPARSE_STORE_HH
