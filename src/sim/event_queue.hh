/**
 * @file
 * Discrete-event simulation queue.
 *
 * A minimal, deterministic event kernel in the spirit of M5's EventQueue
 * (the simulator framework the Corona paper built on). Events are arbitrary
 * callables scheduled at absolute ticks; ties are broken by insertion order
 * so that simulations are reproducible run to run.
 *
 * Every pending callback lives in one node pool. Nodes sit in fixed-size
 * chunks that never move, so a callback runs in place — even while it
 * schedules more events and the pool grows — and its node is freed only
 * after it returns (or throws). Freed nodes go on a LIFO free list, so
 * the node an event frees is the next one scheduled and the working set
 * stays as small as the peak number of pending events.
 *
 * The pool is indexed by a three-level scheduler (a hierarchical timing
 * wheel in the sense of Varghese & Lauck, SOSP 1987) tuned for the
 * traffic the network models generate:
 *
 *  - a near-future bucket ring of ringWindow one-tick buckets. It takes
 *    every tick below the ring line, (floor(base / wheelSlotTicks) + 2) *
 *    wheelSlotTicks, which is never more than one window past the
 *    current base tick. One bucket is the {head, tail} of one tick's
 *    node list, in insertion order, so same-tick FIFO needs no
 *    comparisons at all. The dense short-horizon events (clock edges,
 *    token hops, serialization, mesh hops) all land here. A two-level
 *    occupancy bitmap finds the next non-empty bucket a word (64 ticks)
 *    at a time.
 *
 *  - a calendar wheel of wheelSlots slots, each wheelSlotTicks wide,
 *    for the next 8.4 us past the ring line (memory latencies, think
 *    times). A slot is the {head, tail} of its ticks' node list in
 *    schedule order; each wheel node records its tick. When the ring
 *    line moves, each slot it passes is appended, in list order, to its
 *    ticks' buckets before any direct schedule() can reach those ticks,
 *    so filing and cascading are O(1) per event and same-tick FIFO
 *    still needs no comparator.
 *
 *  - a binary heap of (tick, sequence, node) entries for events beyond
 *    the wheel's reach. Whenever the ring line moves, the entries that
 *    entered the wheel's reach are admitted into their slots, in
 *    (tick, sequence) order, before any direct schedule() can reach
 *    those slots.
 *
 * Cascading and admission relink node indices; the callable never moves.
 *
 * Callbacks are InlineFunctions: captures up to 56 B (this + a full
 * 40-B noc::Message, with room to spare) are stored in the node itself,
 * so the steady-state hot path performs no heap allocation per event.
 * schedule() builds a callable directly in the node it takes, so a
 * capture is moved at most once on its way in.
 */

#ifndef CORONA_SIM_EVENT_QUEUE_HH
#define CORONA_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace corona::sim {

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns the notion of "now"; all model components schedule
 * callbacks against it and must never move time themselves. Events
 * scheduled for the same tick fire in FIFO order of scheduling.
 *
 * The sharded executor runs one queue per thread, and each writes its
 * queue's fields and occupancy bitmaps on every event. The queue owns
 * its cache lines (alignas(64), bitmaps inline) so that no other
 * queue's or thread's data shares them, wherever the allocator puts
 * the queues.
 */
class alignas(64) EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /** Ring coverage in ticks (one bucket per tick; power of two).
     * 16384 ticks = 16.4 ns at the picosecond time base — wide enough
     * for every on-stack network event; off-stack memory latencies and
     * think times go to the wheel. */
    static constexpr std::size_t ringWindow = 16384;

    /** Ticks per wheel slot: half the ring, so the ring line, a slot
     * edge, is always more than one slot and at most one window ahead
     * of the base tick. */
    static constexpr std::size_t wheelSlotTicks = ringWindow / 2;

    /** Wheel slots (power of two). */
    static constexpr std::size_t wheelSlots = 1024;

    /** Ticks the wheel reaches past the ring line: 1024 slots of 8192
     * ticks, 8.4 us. Only events further out wait in the heap. */
    static constexpr Tick wheelReach = wheelSlots * wheelSlotTicks;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callable at an absolute tick. The callable is built
     * directly in its pool node: a temporary is moved once, an lvalue
     * copied once. If building it throws, the queue is unchanged.
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Callable to invoke.
     */
    template <typename F,
              typename = std::enable_if_t<Callback::holds<F>>>
    void
    schedule(Tick when, F &&fn)
    {
        const NodeId node = takeNode(when);
        try {
            callback(node).emplace(std::forward<F>(fn));
        } catch (...) {
            releaseNode(node);
            throw;
        }
        enqueue(when, node);
    }

    /** Schedule a callback already built as a Callback; it relocates
     * once, into its node. */
    void schedule(Tick when, Callback &&cb);

    /** Schedule a callable @p delta ticks in the future. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&fn)
    {
        schedule(_now + delta, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Earliest pending event tick, or maxTick when drained. Exposed
     * for window-based executors (sim::ShardedExecutor) that need the
     * global minimum next tick across several queues. */
    Tick nextTick() const { return nextEventTick(); }

    /** Cumulative ring buckets and wheel slots cleared by reset() over
     * this queue's lifetime (never zeroed by reset itself): the
     * pooled-lease cost, which grows by the buckets and slots a run
     * left occupied and by nothing after a drained run. */
    std::uint64_t resetBucketsWalked() const
    {
        return _resetBucketsWalked;
    }

    /**
     * Run until the queue drains or @p limit is reached.
     *
     * Batch-drain kernel: the outer loop locates the next occupied
     * tick once per bucket (bitmap scan, and cascading when the ring
     * line moves, amortized over the whole tick), then the inner loop
     * pops the bucket's node list and calls each callback in place.
     * Same-tick events appended by a running callback land at the list
     * tail and execute in the same pass, after every event scheduled
     * before them.
     *
     * @param limit Stop (without executing) events scheduled after this
     *              tick; defaults to "run to completion".
     * @return The tick of the last executed event (or now() if none ran).
     */
    Tick run(Tick limit = maxTick);

    /** Drop all pending events and restore the pristine state
     * (now == 0, fresh sequence numbers, zero executed count). Node
     * pool, bucket and heap storage is retained for reuse; only
     * occupied buckets and slots are walked. */
    void reset();

  private:
    /** Index of a node in the pool. */
    using NodeId = std::uint32_t;
    static constexpr NodeId noNode = ~NodeId{0};

    /** Nodes per pool chunk (64 KiB of callbacks). */
    static constexpr std::size_t chunkShift = 10;
    static constexpr std::size_t chunkNodes = std::size_t{1} << chunkShift;

    /** A pool node: one callback on its own cache line. */
    struct alignas(64) Node
    {
        Callback cb;
    };

    /** One tick's node list, in schedule order. */
    struct Bucket
    {
        NodeId head = noNode;
        NodeId tail = noNode;
    };

    /** One wheel slot: the node list of its wheelSlotTicks ticks, in
     * schedule order, and the earliest tick the list holds. */
    struct Slot
    {
        NodeId head = noNode;
        NodeId tail = noNode;
        Tick first = maxTick;
    };

    /** An event beyond the wheel's reach awaiting admission. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        NodeId node;
    };

    /** True when @p a fires after @p b (max-heap comparator inverted
     * into the min-heap the last level needs). */
    static bool
    later(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::size_t bucketOf(Tick when) const { return when & (ringWindow - 1); }

    static std::size_t
    slotOf(Tick when)
    {
        return (when / wheelSlotTicks) & (wheelSlots - 1);
    }

    Callback &
    callback(NodeId node)
    {
        return _chunks[node >> chunkShift][node & (chunkNodes - 1)].cb;
    }

    /** Take an empty node off the free list for an event at @p when
     * (>= now()), growing the pool when the list is empty. */
    NodeId
    takeNode(Tick when)
    {
        if (when < _now)
            schedulingIntoThePast();
        const NodeId node = _free;
        if (node == noNode)
            return growPool();
        _free = _next[node];
        return node;
    }

    [[noreturn]] static void schedulingIntoThePast();

    /** Add a node to the pool and return it, empty. */
    NodeId growPool();

    /** Push an empty node back on the free list. */
    void
    releaseNode(NodeId node)
    {
        _next[node] = _free;
        _free = node;
    }

    /** Destroy the node's callback and push the node on the free list. */
    void
    freeNode(NodeId node)
    {
        callback(node).reset();
        releaseNode(node);
    }

    /** Free every node of the list that starts at @p head. */
    void freeList(NodeId head);

    /** File a node holding its callback as the next event at @p when:
     * into that tick's bucket below the ring line, into its wheel slot
     * within the wheel's reach, or the heap beyond it. */
    void enqueue(Tick when, NodeId node);

    /** Link @p node at the tail of @p bucket's list. */
    void append(std::size_t bucket, NodeId node);

    /** Link @p node, an event at @p when, at the tail of its wheel
     * slot's list. */
    void appendToSlot(Tick when, NodeId node);

    /** Append every node of slot @p slot, in list order, to its tick's
     * bucket and empty the slot. */
    void cascade(std::size_t slot);

    /** Unlink and return the head of @p bucket's list (non-empty),
     * clearing its occupancy bit when the list drains. */
    NodeId popFront(std::size_t bucket);

    /** Call the node's callback in place, then free the node — also
     * when the callback throws. */
    void invoke(NodeId node);

    /** Offset from _ringBase of the earliest occupied bucket; the ring
     * must hold an event. */
    std::size_t nextRingOffset() const;

    /** The earliest occupied wheel slot from the ring line on; the
     * wheel must hold an event. */
    std::size_t nextWheelSlot() const;

    /** Earliest pending event tick, or maxTick when drained. */
    Tick nextEventTick() const;

    /** Slide the window so @p tick is the cursor bucket. When that
     * moves the ring line, cascade the slots it passed and admit the
     * heap events that entered the wheel's reach. @p tick must hold
     * the next pending event. */
    void advanceTo(Tick tick);

    void markOccupied(std::size_t bucket);
    void clearOccupied(std::size_t bucket);

    /** Node storage; a chunk's address never changes once allocated. */
    std::vector<std::unique_ptr<Node[]>> _chunks;
    /** Per node: the next node of its bucket list or of the free list. */
    std::vector<NodeId> _next;
    /** Head of the LIFO free list. */
    NodeId _free = noNode;

    std::vector<Bucket> _ring;
    /** One bit per bucket; set while the bucket has unexecuted events. */
    std::array<std::uint64_t, ringWindow / 64> _occupied{};
    /** One bit per _occupied word (two-level bitmap): the next
     * non-empty bucket is found by scanning at most a handful of
     * summary words instead of hundreds of leaf words. */
    std::array<std::uint64_t, ringWindow / (64 * 64)> _summary{};
    /** Tick of the cursor bucket: ring events span
     * [_ringBase, _ringLimit). */
    Tick _ringBase = 0;
    /** The ring line: (floor(_ringBase / wheelSlotTicks) + 2) *
     * wheelSlotTicks. Wheel events span [_ringLimit, _ringLimit +
     * wheelReach); heap events lie beyond. */
    Tick _ringLimit = 2 * wheelSlotTicks;
    std::size_t _ringCount = 0;

    /** Per node: its tick while it waits in a wheel slot. */
    std::vector<Tick> _when;
    std::array<Slot, wheelSlots> _wheel{};
    /** One bit per slot; set while the slot holds events. */
    std::array<std::uint64_t, wheelSlots / 64> _wheelOccupied{};
    std::size_t _wheelCount = 0;

    /** Min-heap beyond the wheel (std::push_heap/std::pop_heap over a
     * vector). */
    std::vector<HeapEntry> _heap;

    std::size_t _pending = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _resetBucketsWalked = 0;
};

} // namespace corona::sim

#endif // CORONA_SIM_EVENT_QUEUE_HH
