/**
 * @file
 * Miss Status Holding Register file.
 *
 * Each cluster's hub tracks outstanding L2 misses in a finite MSHR file
 * (the paper: "The MSHRs, hub, interconnect, arbitration, and memory are
 * all modeled in detail with finite buffers..."). The file bounds
 * concurrency (back-pressuring threads when full) and coalesces
 * secondary misses to a line already in flight.
 */

#ifndef CORONA_MEMORY_MSHR_HH
#define CORONA_MEMORY_MSHR_HH

#include <cstdint>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "topology/address_map.hh"

namespace corona::memory {

/**
 * A finite MSHR file with secondary-miss coalescing.
 *
 * The in-use lines are a hash map from line to entry. Each entry holds
 * the allocation tick and a FIFO of the threads waiting on the fill,
 * linked through one per-file pool of 16-byte nodes with a free list.
 * reset() keeps the map's and the pool's storage, so once the file has
 * seen its peak occupancy a miss allocates nothing.
 */
class MshrFile
{
  public:
    /** A thread waiting on a fill, and the tick its miss became ready
     * (where its latency is measured from). */
    struct Waiter
    {
        std::uint32_t thread = 0;
        sim::Tick ready = 0;
    };

    /** Outcome of attach(). */
    enum class Attach
    {
        Coalesced, ///< Joined a miss already in flight on the line.
        Allocated, ///< Took a free entry: the caller sends the request.
        Full,      ///< No free entry; the waiter was not queued.
    };

    /** @param entries Capacity (Table-1-scale default: 32 per cluster). */
    explicit MshrFile(std::size_t entries = 32);

    std::size_t capacity() const { return _capacity; }
    std::size_t inUse() const { return _lines.size(); }
    bool full() const { return _lines.size() >= _capacity; }

    /**
     * Queue @p waiter, woken when @p line's fill returns, on the line's
     * entry: join it when the line is in flight, else allocate one at
     * @p now. On Full nothing is queued and the stall counts toward
     * fullStalls(). The all-ones line is reserved (the map's empty
     * key).
     */
    Attach attach(topology::Addr line, sim::Tick now, Waiter waiter);

    /**
     * The fill for @p line arrived: free its entry, run onFree, then
     * wake its waiters through onWake — the allocating one first, then
     * the rest in attach order. onFree and onWake may attach again,
     * even to @p line.
     */
    void retire(topology::Addr line, sim::Tick now);

    /** Register the handler run whenever an entry frees. */
    void onFree(sim::InlineFunction<void()> cb) { _onFree = std::move(cb); }

    /** Register the handler each retired waiter is woken through. */
    void
    onWake(sim::InlineFunction<void(const Waiter &)> cb)
    {
        _onWake = std::move(cb);
    }

    /** Entry lifetime statistics, ticks. */
    const stats::RunningStats &lifetime() const { return _lifetime; }

    /** Secondary misses: waiters that joined a miss already in flight
     * (the allocating waiter is not counted). */
    std::uint64_t coalesced() const { return _coalesced; }

    /** Attach attempts rejected because the file was full. */
    std::uint64_t fullStalls() const { return _fullStalls; }

    /** Drop every entry and queued waiter, without waking any, and
     * zero the statistics. The handlers and every container's storage
     * are kept. */
    void reset();

  private:
    /** Null node index: end of a list. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** An in-use line's entry: its waiter FIFO, as node indices. */
    struct Entry
    {
        sim::Tick allocated = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    /** A queued waiter, linked into an entry's FIFO or the free list. */
    struct Node
    {
        sim::Tick ready = 0;
        std::uint32_t thread = 0;
        std::uint32_t next = kNone;
    };

    /** Take a node from the pool (held by index: a push may
     * reallocate it) holding @p waiter. */
    std::uint32_t newNode(const Waiter &waiter);

    std::size_t _capacity;
    /** In-use lines; an entry moves when the map grows or erases. */
    sim::FlatMap<Entry> _lines;
    /** Waiter nodes of every entry; grows to the peak number queued. */
    std::vector<Node> _nodes;
    std::uint32_t _freeNodes = kNone;
    sim::InlineFunction<void()> _onFree;
    sim::InlineFunction<void(const Waiter &)> _onWake;
    stats::RunningStats _lifetime;
    std::uint64_t _coalesced = 0;
    std::uint64_t _fullStalls = 0;
};

} // namespace corona::memory

#endif // CORONA_MEMORY_MSHR_HH
