/**
 * @file
 * The trace feed: every core's trace entries, generated ahead of the
 * simulation on one producer thread.
 *
 * A core's entry sequence depends only on its trace source, never on
 * simulated state. So the feed runs the sources' unchanged
 * TraceSource::next() on a thread of its own and hands each core its
 * entries, in order, through a single-producer/single-consumer ring.
 * pop(core) returns exactly the values the source would have returned
 * inline.
 *
 * Ownership. SimSystem owns the sources and the feed; the feed only
 * borrows the sources and is destroyed before them. The thread that
 * runs the simulation is the only caller of pop(). A ring is filled,
 * and its source's next() called, only by the thread holding the
 * ring's `claim`: the producer, or the consumer when it finds the ring
 * empty and the producer is not on it (the producer's thread has not
 * started yet, or the host has not scheduled it since it was woken).
 * The consumer then fills one chunk itself instead of waiting.
 *
 * Lifecycle. Construction allocates nothing and starts nothing.
 * start(), called by SimSystem's first run(), maps the rings and
 * starts the producer, so a system that is built but never run costs
 * no thread. The destructor raises `stop_`, wakes the producer if it
 * is parked and joins it; a producer in the middle of a chunk finishes
 * that chunk first.
 *
 * Wake protocol (atomics only, no mutex). The producer tops up the
 * rings round robin, at most chunkEntries entries per ring per pass,
 * publishing each chunk. When every ring is full it parks on `parked_`
 * (C++20 atomic wait). The consumer publishes its position every
 * checkEvery pops; when it then sees its ring at most half full and
 * the producer parked, it wakes it, and the producer refills every
 * ring before it parks again. Each side stores its own word and then
 * loads the other's, both sequentially consistent, so at least one
 * sees the other: either the consumer sees `parked_` and wakes the
 * producer, or the producer, checking the rings once more after it
 * raised `parked_`, sees the freed half and does not park. A consumer
 * whose empty ring the producer is filling waits the same way on the
 * ring's `waiting` word, which the producer clears after each chunk.
 * docs/CONCURRENCY.md has the full argument.
 */

#ifndef MORPH_SIM_TRACE_FEED_HH
#define MORPH_SIM_TRACE_FEED_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "workloads/trace.hh"

namespace morph
{

/** One producer thread feeding one ring per core. */
class TraceFeed
{
  public:
    /** Entries in each core's ring (a power of two). */
    static constexpr std::size_t ringEntries = 2048;

    /** Entries the producer generates for one ring before it
     *  publishes them and moves on to the next ring. */
    static constexpr std::size_t chunkEntries = 256;

    /** The consumer publishes its position every this many pops. */
    static constexpr std::size_t checkEvery = 64;

    /** pop() prefetches the slot this many entries ahead. */
    static constexpr std::size_t prefetchAhead = 16;

    /** Borrow @p sources, one per core; they must outlive the feed. */
    explicit TraceFeed(
        const std::vector<std::unique_ptr<TraceSource>> &sources)
        : sources_(sources)
    {}

    ~TraceFeed();

    TraceFeed(const TraceFeed &) = delete;
    TraceFeed &operator=(const TraceFeed &) = delete;

    /** Allocate the rings and start the producer; later calls do
     *  nothing. */
    void start();

    /** True once start() has run. */
    bool started() const { return rings_ != nullptr; }

    /** The next entry of core @p core's source. Call after start(),
     *  from one thread at a time. An exception the source threw,
     *  whichever thread called it, is rethrown here, by the pop that
     *  needs the entry the source failed to make. */
    TraceEntry
    pop(unsigned core)
    {
        Ring &ring = rings_[core];
        if (ring.head == ring.limit) [[unlikely]]
            awaitEntries(ring);
        const TraceEntry entry = ring.slots[ring.head & (ringEntries - 1)];
        // Another core wrote the slots: ask for them four lines ahead.
        __builtin_prefetch(
            &ring.slots[(ring.head + prefetchAhead) & (ringEntries - 1)]);
        if (++ring.head % checkEvery == 0) [[unlikely]]
            checkpoint(ring);
        return entry;
    }

  private:
    /** One core's ring. Indices count entries from the start and
     *  never wrap; a slot is index & (ringEntries - 1). */
    struct Ring
    {
        // Consumer side, touched by the popping thread only.
        alignas(64) std::uint64_t head = 0; ///< next index to pop
        /// `produced` as last loaded: entries below it are readable.
        std::uint64_t limit = 0;

        // Published by the consumer.
        alignas(64) std::atomic<std::uint64_t> consumed{0};
        /// 1 while the consumer waits on an empty ring.
        std::atomic<std::uint32_t> waiting{0};

        // The filling side: whichever thread holds `claim`.
        alignas(64) std::atomic<std::uint64_t> produced{0};
        /// 1 while a thread fills the ring, `failedClaim` for good
        /// once its source threw (acquire/release).
        std::atomic<std::uint32_t> claim{0};
        /// What the source threw; set before `claim` turns failed.
        MORPH_SHARD_LOCAL std::exception_ptr error;
        /// Next index to fill; touched under `claim` only.
        MORPH_SHARD_LOCAL std::uint64_t tail = 0;
        /// The core's source; next() runs under `claim` only.
        TraceSource *source = nullptr;

        /// Slots [consumed, produced) belong to the consumer, the rest
        /// to the holder of `claim`; `produced` and `consumed` hand
        /// them over (release/acquire).
        alignas(64) MORPH_SHARD_LOCAL TraceEntry slots[ringEntries];
    };

    /** The consumer's slow path on an empty ring: fill a chunk itself,
     *  or wait for the producer's if it holds the ring. */
    [[gnu::noinline]] void awaitEntries(Ring &ring);

    /** Publish the consumer's position, reload `produced`, and wake
     *  the producer if the ring is at most half full. */
    [[gnu::noinline]] void checkpoint(Ring &ring);

    /** The producer thread's loop. */
    void produce();

    /** `claim` of a ring whose source threw. */
    static constexpr std::uint32_t failedClaim = 2;

    /** Claim @p ring and generate up to one chunk into it; false if
     *  it was full, another thread held it, or its source had thrown.
     *  An exception from the source ends the chunk and fails the
     *  ring, keeping the entries made before it. */
    bool topUp(Ring &ring);

    /** Wait until a consumer or the destructor clears `parked_`. */
    void park();

    /** Clear `parked_` and wake the producer if it was set. */
    void wakeProducer();

    /** Size of the mapping that holds the rings. */
    std::size_t ringBytes() const { return sizeof(Ring) * sources_.size(); }

    const std::vector<std::unique_ptr<TraceSource>> &sources_;
    Ring *rings_ = nullptr; ///< one per source, in an anonymous mapping
    std::thread producer_;

    std::atomic<std::uint32_t> parked_{0};
    std::atomic<bool> stop_{false};
};

} // namespace morph

#endif // MORPH_SIM_TRACE_FEED_HH
