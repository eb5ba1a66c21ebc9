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

#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "topology/address_map.hh"

namespace corona::memory {

/**
 * A finite MSHR file with secondary-miss coalescing.
 *
 * The in-use lines form a dense tag array of at most capacity() entries,
 * so a lookup is one linear scan of it; retiring swap-removes the tag.
 * Each tag points at a slot holding the allocation tick and the waiters
 * to wake on the fill. Slots are made on first use and then recycled,
 * and a retire hands its waiter storage back to the freed slot, so a
 * steady-state miss allocates nothing.
 */
class MshrFile
{
  public:
    /** Waker callbacks capture at most a simulation pointer plus a
     * thread id, so they always fit the inline buffer. */
    using WakeFn = sim::InlineFunction<void()>;

    /** Outcome of attach(). */
    enum class Attach
    {
        Coalesced, ///< Joined a miss already in flight on the line.
        Allocated, ///< Took a free entry: the caller sends the request.
        Full,      ///< No free entry; the waker was left untouched.
    };

    /** @param entries Capacity (Table-1-scale default: 32 per cluster). */
    explicit MshrFile(std::size_t entries = 32);

    std::size_t capacity() const { return _capacity; }
    std::size_t inUse() const { return _lines.size(); }
    bool full() const { return _lines.size() >= _capacity; }

    /**
     * Attach @p waker, run when @p line's fill returns, to the line's
     * entry: join it when the line is in flight, else allocate one at
     * @p now. On Full the waker is not consumed and the stall counts
     * toward fullStalls().
     */
    Attach attach(topology::Addr line, sim::Tick now, WakeFn &&waker);

    /**
     * The fill for @p line arrived: free its entry, run onFree, then run
     * its wakers — the allocating one first, then the rest in attach
     * order. onFree and the wakers may attach again, even to @p line.
     */
    void retire(topology::Addr line, sim::Tick now);

    /** Register a callback run whenever an entry frees. */
    void onFree(WakeFn cb) { _onFree = std::move(cb); }

    /** Entry lifetime statistics, ticks. */
    const stats::RunningStats &lifetime() const { return _lifetime; }

    /** Secondary misses: wakers that joined a miss already in flight
     * (the allocating waker is not counted). */
    std::uint64_t coalesced() const { return _coalesced; }

    /** Attach attempts rejected because the file was full. */
    std::uint64_t fullStalls() const { return _fullStalls; }

    /** Drop every entry (destroying its waiters) and zero the
     * statistics. The onFree wiring is kept. */
    void
    reset()
    {
        for (Slot &slot : _slots)
            slot.waiters.clear();
        _lines.clear();
        _lifetime.reset();
        _coalesced = 0;
        _fullStalls = 0;
    }

  private:
    struct Slot
    {
        sim::Tick allocated = 0;
        std::vector<WakeFn> waiters;
    };

    /** Position of @p line in _lines, or inUse() when absent. */
    std::size_t find(topology::Addr line) const;

    std::size_t _capacity;
    /** Tags of the in-use lines, dense. */
    std::vector<topology::Addr> _lines;
    /** A permutation of the slots: _slotOf[i] serves _lines[i] for
     * i < inUse(), and the rest are free. */
    std::vector<std::size_t> _slotOf;
    /** Grows on first use up to capacity(), so no Slot reference is
     * held across a call that may attach. */
    std::vector<Slot> _slots;
    /** Empty waiter storage handed to the next freed slot. */
    std::vector<WakeFn> _spare;
    WakeFn _onFree;
    stats::RunningStats _lifetime;
    std::uint64_t _coalesced = 0;
    std::uint64_t _fullStalls = 0;
};

} // namespace corona::memory

#endif // CORONA_MEMORY_MSHR_HH
