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
 *   1. at the barrier, T = the earliest pending tick across every
 *      shard's queue and every staged post, and the window is
 *      [T, T + L) (cut short at the next tick hook);
 *   2. every shard, on its own thread, imports the posts staged for
 *      it during the previous window into its queue, in canonical
 *      (tick, source entity, per-source sequence) order;
 *   3. every shard drains its queue through the window end; posts it
 *      makes are staged per (source shard, destination shard).
 *
 * Posts alternate between two staging generations by window, so a
 * shard's window writes only the generation no shard is importing,
 * and no buffer is written by one thread while another reads it.
 *
 * Determinism discipline. The model is partitioned into *entities*
 * (per-cluster hub + memory controller + driver lane + home channel;
 * the mesh fabric is one entity). Entities interact only through
 * post() — never by direct call — and every posted latency is >= L,
 * so a staged event always lands at or beyond the next barrier. State
 * is entity-private, so same-tick events of different entities
 * commute, and the canonical import order makes every queue's bucket
 * FIFO a pure function of the model — not of the shard count or of
 * thread scheduling. Output bytes are therefore bit-identical at any
 * K, which the parallel_smoke.sh / parallel_test parity gates enforce
 * the same way the pooled/sharded/obs planes already are.
 */

#ifndef CORONA_SIM_PARALLEL_HH
#define CORONA_SIM_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
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
     * Stage a cross-entity event: @p fn runs at absolute tick @p when
     * on @p dst's shard, imported after the next barrier in (when,
     * src, sequence) order. Must be invoked from @p src's shard (i.e.
     * from an event executing on it), and @p when must lie at or past
     * the current window's end, which a full lookahead past the
     * posting event's tick always does. The callable is built in its
     * staging slot: a temporary is moved once, an lvalue copied once.
     */
    template <typename F,
              typename = std::enable_if_t<Callback::holds<F>>>
    void
    post(std::size_t src, std::size_t dst, Tick when, F &&fn)
    {
        const auto [from, to] = admit(src, dst, when);
        lane(_gen, from, to).emplace_back(
            when, static_cast<std::uint32_t>(src), std::forward<F>(fn));
        Tick &earliest = _earliest[from].tick;
        earliest = std::min(earliest, when);
    }

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
    /** A posted event waiting for its destination shard's import. */
    struct Staged
    {
        template <typename F>
        Staged(Tick at, std::uint32_t from, F &&fn)
            : when(at), src(from), cb(std::forward<F>(fn))
        {
        }

        Tick when;
        std::uint32_t src;
        Callback cb;
    };

    /** The posts of one (generation, source shard, destination shard),
     * in post order, on its own cache line: its source shard appends
     * during one window and its destination shard drains it during
     * the next. */
    struct alignas(64) Lane
    {
        std::vector<Staged> items;
    };

    /** One source shard's earliest staged tick since the last barrier
     * (maxTick when none), on its own cache line. */
    struct alignas(64) Earliest
    {
        Tick tick = maxTick;
    };

    /** The import's sort key: a staged post's tick, its source entity
     * and its position in its lane. Every post of one source entity to
     * one shard in one window sits in one lane, in post order, so the
     * position stands for the per-source sequence. */
    struct Key
    {
        Tick when;
        std::uint32_t src;
        std::uint32_t pos;
    };

    /** One destination shard's sort keys, kept across windows, on
     * its own cache lines. */
    struct alignas(64) KeyBuffer
    {
        std::vector<Key> keys;
    };

    /** Check a post's entities and tick; @return its (source shard,
     * destination shard). */
    std::pair<std::size_t, std::size_t>
    admit(std::size_t src, std::size_t dst, Tick when) const
    {
        if (src >= _entityShard.size() || dst >= _entityShard.size())
            badEntity();
        if (when < _windowEnd)
            belowHorizon();
        return {_entityShard[src], _entityShard[dst]};
    }

    [[noreturn]] static void badEntity();
    [[noreturn]] static void belowHorizon();

    std::vector<Staged> &
    lane(std::size_t gen, std::size_t from, std::size_t to)
    {
        return _lanes[(gen * _queues.size() + from) * _queues.size() + to]
            .items;
    }

    /** Compute the next window (or set _done), fire due tick hooks and
     * flip the staging generation. Runs with all shards quiescent. */
    void barrierPhase();

    /** Move the posts staged for @p shard in the previous window into
     * its queue, in canonical order. Runs on @p shard's thread. */
    void importStaged(std::size_t shard);

    std::vector<std::uint32_t> _entityShard;
    Tick _lookahead;
    std::vector<std::unique_ptr<EventQueue>> _queues;

    /** Staging lanes, indexed (generation, source, destination). */
    std::vector<Lane> _lanes;
    std::vector<Earliest> _earliest;
    std::vector<KeyBuffer> _keyBuffers;
    /** The generation posts are staged into; the other one is the
     * generation being imported. Flipped only in barrierPhase(). */
    std::size_t _gen = 0;

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
