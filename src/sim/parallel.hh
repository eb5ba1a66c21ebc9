/**
 * @file
 * Conservative parallel discrete-event execution (ROADMAP item 2).
 *
 * A ShardedExecutor runs one simulation as K event queues (shards)
 * advancing in lockstep windows. The window size is the model's
 * physical lookahead L — the minimum latency of any cross-shard
 * interaction (optical channel flight time, mesh hop latency), which
 * bounds how far one shard can run without observing another. Each
 * window:
 *
 *   1. T = the earliest pending tick across every shard;
 *   2. every shard drains its own queue through [T, T + L) in
 *      parallel, one thread per shard;
 *   3. at the barrier, cross-shard events staged during the window
 *      are merged into their destination queues in canonical
 *      (tick, source entity, per-source sequence) order.
 *
 * Determinism discipline. The model is partitioned into *entities*
 * (per-cluster hub + memory controller + driver lane + home channel;
 * the mesh fabric is one entity). Entities interact only through
 * post() — never by direct call — and every posted latency is >= L,
 * so a staged event always lands at or beyond the next barrier. State
 * is entity-private, so same-tick events of different entities
 * commute, and the canonical merge order makes every queue's bucket
 * FIFO a pure function of the model — not of the shard count or of
 * thread scheduling. Output bytes are therefore bit-identical at any
 * K, which the parallel_smoke.sh / parallel_test parity gates enforce
 * the same way the pooled/sharded/obs planes already are.
 */

#ifndef CORONA_SIM_PARALLEL_HH
#define CORONA_SIM_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace corona::sim {

/**
 * K event queues advanced in lookahead windows with deterministic
 * cross-shard event exchange.
 */
class ShardedExecutor
{
  public:
    using Callback = EventQueue::Callback;

    /**
     * @param entity_shard Shard index of each entity (entity id is the
     *        position; values must be < @p shards).
     * @param shards Shard (and worker thread) count, >= 1.
     * @param lookahead Window width L in ticks, >= 1: no cross-entity
     *        post may carry a latency below it.
     */
    ShardedExecutor(std::vector<std::uint32_t> entity_shard,
                    std::size_t shards, Tick lookahead);

    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;

    std::size_t shards() const { return _queues.size(); }
    std::size_t entities() const { return _entityShard.size(); }
    Tick lookahead() const { return _lookahead; }

    std::size_t
    shardOf(std::size_t entity) const
    {
        return _entityShard[entity];
    }

    /** The queue driving @p entity's components. */
    EventQueue &
    queueFor(std::size_t entity)
    {
        return *_queues[_entityShard[entity]];
    }

    /** Shard @p shard's queue. */
    EventQueue &queue(std::size_t shard) { return *_queues[shard]; }
    const EventQueue &
    queue(std::size_t shard) const
    {
        return *_queues[shard];
    }

    /**
     * Stage a cross-entity event: @p cb runs at absolute tick @p when
     * on @p dst's shard, merged at the next barrier in (when, src,
     * sequence) order. Must be invoked from @p src's shard (i.e. from
     * an event executing on it), and @p when must be at least a full
     * lookahead past the posting event's tick.
     */
    void post(std::size_t src, std::size_t dst, Tick when, Callback cb);

    /**
     * Invoke @p hook at every multiple of @p period (starting at
     * @p period; the caller samples t = 0 itself), at a barrier where
     * every event with tick <= the sample tick has executed and none
     * beyond it has — the executor-mode seat of the obs time-series
     * sampler. Firing stops when the simulation drains, mirroring the
     * serial sampler's stop-on-empty contract.
     */
    void setTickHook(Tick period, std::function<void(Tick)> hook);
    void clearTickHook();

    /**
     * Execute windows until every queue and staging buffer drains.
     * Spawns shards() - 1 worker threads (none when forceSerial(true)
     * or shards() == 1; the serial path executes the identical window
     * schedule, so results cannot differ).
     *
     * @return The last executed tick across all shards.
     */
    Tick run();

    /** Execute the window schedule on the calling thread only. */
    void forceSerial(bool serial) { _forceSerial = serial; }

    /** Sum of events executed across all shards. */
    std::uint64_t executed() const;

    /** True when no shard has pending events and nothing is staged. */
    bool empty() const;

    /** True when no shard ever ran and nothing is staged. */
    bool pristine() const;

    /** Last executed tick across all shards. */
    Tick now() const;

    /** Restore the pristine state of every queue and staging buffer. */
    void reset();

  private:
    struct StagedItem
    {
        Tick when;
        std::uint32_t src;
        std::uint32_t dst;
        std::uint64_t seq;
        Callback cb;
    };

    /** Compute the next window (or set _done); merge staged items;
     * fire due tick hooks. Runs with all shards quiescent. */
    void barrierPhase();

    /** Merge every staged item into its destination queue. */
    void importStaged();

    std::vector<std::uint32_t> _entityShard;
    Tick _lookahead;
    std::vector<std::unique_ptr<EventQueue>> _queues;

    /** Per-source-shard staging buffers (single-writer during a
     * window; drained at the barrier). */
    std::vector<std::vector<StagedItem>> _staged;
    /** Scratch for the canonical merge sort. */
    std::vector<StagedItem> _merge;
    /** Per-source-entity sequence numbers. */
    std::vector<std::uint64_t> _seq;

    /** End of the current window: shards run through _windowEnd - 1.
     * Written only in barrierPhase() / before workers start. */
    Tick _windowEnd = 0;
    bool _done = false;
    bool _forceSerial = false;
    bool _running = false;

    Tick _hookPeriod = 0;
    Tick _nextHook = 0;
    std::function<void(Tick)> _hook;
};

} // namespace corona::sim

#endif // CORONA_SIM_PARALLEL_HH
