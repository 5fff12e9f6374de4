#include "sim/trace_feed.hh"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>

namespace morph
{

TraceFeed::~TraceFeed()
{
    if (producer_.joinable()) {
        stop_.store(true, std::memory_order_seq_cst);
        wakeProducer();
        producer_.join();
    }
    if (rings_) {
        std::destroy_n(rings_, sources_.size());
        ::munmap(rings_, ringBytes());
    }
}

void
TraceFeed::start()
{
    if (rings_)
        return;
    // The rings take pages of their own, which go back to the system
    // when the feed dies. From the heap, a block this size lands in
    // the arena of whichever thread runs the system and stays resident
    // there between systems.
    void *block = ::mmap(nullptr, ringBytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED)
        throw std::bad_alloc();
    rings_ = static_cast<Ring *>(block);
    std::uninitialized_default_construct_n(rings_, sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i)
        rings_[i].source = sources_[i].get();
    producer_ = std::thread([this] { produce(); });
}

void
TraceFeed::checkpoint(Ring &ring)
{
    ring.consumed.store(ring.head, std::memory_order_seq_cst);
    ring.limit = ring.produced.load(std::memory_order_acquire);
    if (ring.limit - ring.head <= ringEntries / 2 &&
        parked_.load(std::memory_order_seq_cst) != 0)
        wakeProducer();
}

void
TraceFeed::awaitEntries(Ring &ring)
{
    checkpoint(ring);
    while (ring.limit == ring.head) {
        // The producer is behind: its thread has not run yet, or the
        // host has not scheduled it since the wake. Fill a chunk here
        // rather than wait, unless the producer is filling this ring
        // right now or its source has thrown.
        if (topUp(ring)) {
            // Acquire: the producer may have published more since.
            ring.limit = ring.produced.load(std::memory_order_acquire);
            break;
        }
        ring.waiting.store(1, std::memory_order_seq_cst);
        ring.limit = ring.produced.load(std::memory_order_seq_cst);
        if (ring.limit != ring.head)
            break;
        if (ring.claim.load(std::memory_order_seq_cst) == failedClaim)
            std::rethrow_exception(ring.error);
        ring.waiting.wait(1, std::memory_order_seq_cst);
        ring.limit = ring.produced.load(std::memory_order_acquire);
    }
    ring.waiting.store(0, std::memory_order_relaxed);
}

void
TraceFeed::wakeProducer()
{
    if (parked_.exchange(0, std::memory_order_seq_cst) != 0)
        parked_.notify_one();
}

void
TraceFeed::produce()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        bool filled = false;
        for (std::size_t i = 0; i < sources_.size(); ++i)
            filled |= topUp(rings_[i]);
        if (!filled)
            park();
    }
}

bool
TraceFeed::topUp(Ring &ring)
{
    std::uint32_t idle = 0;
    if (!ring.claim.compare_exchange_strong(idle, 1,
                                            std::memory_order_seq_cst))
        return false;
    const std::uint64_t used =
        ring.tail - ring.consumed.load(std::memory_order_acquire);
    const std::uint64_t end =
        ring.tail + std::min<std::uint64_t>(ringEntries - used,
                                            chunkEntries);
    const std::uint64_t begin = ring.tail;
    std::uint32_t release = 0;
    try {
        for (; ring.tail != end; ++ring.tail)
            ring.slots[ring.tail & (ringEntries - 1)] =
                ring.source->next();
    } catch (...) {
        ring.error = std::current_exception();
        release = failedClaim;
    }
    const bool filled = ring.tail != begin;
    if (filled)
        ring.produced.store(ring.tail, std::memory_order_seq_cst);
    ring.claim.store(release, std::memory_order_seq_cst);
    if (ring.waiting.load(std::memory_order_seq_cst) != 0 &&
        ring.waiting.exchange(0, std::memory_order_seq_cst) != 0)
        ring.waiting.notify_one();
    return filled;
}

void
TraceFeed::park()
{
    parked_.store(1, std::memory_order_seq_cst);
    // A consumer that freed half its ring before it could see
    // parked_ = 1 did not wake us: look at the rings once more. A ring
    // the consumer is filling itself is not ours to fill; its next
    // checkpoint sees parked_ = 1.
    bool wanted = stop_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < sources_.size() && !wanted; ++i) {
        const Ring &ring = rings_[i];
        wanted = ring.claim.load(std::memory_order_seq_cst) == 0 &&
                 ring.produced.load(std::memory_order_acquire) -
                         ring.consumed.load(std::memory_order_seq_cst) <=
                     ringEntries / 2;
    }
    if (wanted) {
        parked_.store(0, std::memory_order_relaxed);
        return;
    }
    while (parked_.load(std::memory_order_acquire) != 0)
        parked_.wait(1, std::memory_order_acquire);
}

} // namespace morph
