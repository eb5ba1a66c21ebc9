/**
 * @file
 * Distributed all-optical token-ring arbitration (Section 3.2.3).
 *
 * Every crossbar channel has a one-bit token — a pulse of the channel's
 * wavelength circulating on an arbitration waveguide. A cluster wanting to
 * send diverts (absorbs) the token when it passes, gaining exclusive use
 * of the channel; on completion it re-injects the token at its own
 * position, where the next requester downstream in ring order can divert
 * it. This is naturally distributed, fair (round-robin in ring order),
 * and fast: an uncontested requester waits at most one full loop (8
 * clocks); under contention the token moves only sender-to-sender.
 *
 * Detectors are positioned so a cluster cannot re-acquire its own
 * just-injected token until it completes a full revolution.
 */

#ifndef CORONA_XBAR_TOKEN_ARBITER_HH
#define CORONA_XBAR_TOKEN_ARBITER_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "stats/stats.hh"
#include "topology/geometry.hh"

namespace corona::obs {
class EventTracer;
} // namespace corona::obs

namespace corona::xbar {

/**
 * Event-driven model of one channel's circulating optical token.
 *
 * The token's motion is tracked lazily: while free, it is defined by the
 * (position, departure time) of its last injection and advances at one
 * cluster per hop time. Requests divert it at the requester's position;
 * releases re-inject it at the holder's position.
 *
 * Waiters are a bitset over ring positions plus a dense array of their
 * request ticks. The token reaches distinct positions at distinct
 * ticks within one loop, so the next grant goes to the first waiting
 * position downstream of the token: a release finds it with a bitset
 * scan, and a request against a pending grant compares one arrival
 * tick, at most one division either way.
 */
class TokenArbiter
{
  public:
    /**
     * @param eq Event queue.
     * @param clusters Clusters on the arbitration ring.
     * @param hop_time Token travel time between adjacent clusters, ticks
     *        (25 ps: 8 clocks / 64 clusters at 5 GHz).
     */
    TokenArbiter(sim::EventQueue &eq, std::size_t clusters,
                 sim::Tick hop_time);

    /**
     * Register the handler each grant runs with the granted cluster
     * (wired once by the owning channel or bus). reset() keeps it.
     */
    void
    onGrant(sim::InlineFunction<void(topology::ClusterId)> grant)
    {
        _grant = std::move(grant);
    }

    /**
     * Request the channel for @p requester. The grant handler runs when
     * the token reaches and is diverted by the requester. At most one
     * outstanding request per cluster (callers serialize their traffic).
     */
    void request(topology::ClusterId requester);

    /**
     * Release the channel: the holder re-injects the token at its own
     * position. Must match a prior grant.
     */
    void release(topology::ClusterId holder);

    /** True while some cluster holds the token. */
    bool held() const { return _held; }

    /** Token acquisition wait statistics, ticks. */
    const stats::RunningStats &waitStats() const { return _waitStats; }

    /** Total grants issued. */
    std::uint64_t grants() const { return _grants; }

    /**
     * Grant schedules coalesced into an already-pending grant event:
     * a request the free token reaches after the grant already on the
     * queue rides that event instead of scheduling its own. Batching
     * never changes which waiter is granted: the event's winner is the
     * nearest waiter downstream.
     */
    std::uint64_t grantsBatched() const { return _grantsBatched; }

    /** Hop time between ring neighbours, ticks. */
    sim::Tick hopTime() const { return _hopTime; }

    /** Full-loop revolution time, ticks. */
    sim::Tick loopTime() const { return _hopTime * _clusters; }

    /**
     * Attach a trace sink (null detaches); grants record a
     * TokenHandoff span tagged with @p channel (the owning channel's
     * home). Observability wiring, like onGrant: reset() keeps it.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint32_t channel)
    {
        _tracer = tracer;
        _traceChannel = channel;
    }

    /** Restore the pristine post-construction state: token free at
     * cluster 0, no waiters, zeroed statistics. Requires the event
     * queue to be reset alongside (scheduled grants are dropped). */
    void
    reset()
    {
        _held = false;
        _tokenOrigin = 0;
        _tokenDeparture = 0;
        std::fill(_waiting.begin(), _waiting.end(), 0);
        _waiters.clear();
        _grantEpoch = 0;
        _pendingGrant.reset();
        _pendingBatch = 0;
        _waitStats.reset();
        _grants = 0;
        _grantsBatched = 0;
    }

  private:
    /** A waiting cluster and the tick it requested at. */
    struct Waiter
    {
        sim::Tick since;
        topology::ClusterId cluster;
    };

    /** Ring hops from @p from to @p to; 0 distance means a full loop. */
    std::size_t forwardHops(topology::ClusterId from,
                            topology::ClusterId to) const;

    /** Earliest tick >= now at which the free token reaches @p cluster. */
    sim::Tick freeTokenArrival(topology::ClusterId cluster) const;

    bool
    waiting(topology::ClusterId cluster) const
    {
        return (_waiting[cluster / 64] >> (cluster % 64)) & 1;
    }

    /** First waiting position at or after @p from in ring order; some
     * cluster must be waiting. */
    topology::ClusterId nextWaiter(topology::ClusterId from) const;

    /** Schedule the grant of @p winner at @p at, superseding any
     * pending one. */
    void scheduleGrant(topology::ClusterId winner, sim::Tick at);

    void fireGrant(topology::ClusterId winner, sim::Tick granted_at);

    sim::EventQueue &_eq;
    std::size_t _clusters;
    sim::Tick _hopTime;

    bool _held = false;
    /** Position of the last injection while the token is free. */
    topology::ClusterId _tokenOrigin = 0;
    /** Tick the token departed _tokenOrigin. */
    sim::Tick _tokenDeparture = 0;

    /** Bit c of word c / 64 is set while cluster c waits. */
    std::vector<std::uint64_t> _waiting;
    /** The waiters, in no order. A channel's sources reserve a home
     * buffer slot before they request, so it holds at most as many as
     * that buffer has slots. */
    std::vector<Waiter> _waiters;
    sim::InlineFunction<void(topology::ClusterId)> _grant;
    /** Sequence number guarding stale scheduled grants. */
    std::uint64_t _grantEpoch = 0;
    /** Tick of the grant event scheduled under the current epoch,
     * while one is outstanding and the token is free. */
    std::optional<sim::Tick> _pendingGrant;
    /** The waiter that event grants. */
    topology::ClusterId _pendingWinner = 0;
    /** Schedules coalesced into the currently pending grant event. */
    std::uint32_t _pendingBatch = 0;

    stats::RunningStats _waitStats;
    std::uint64_t _grants = 0;
    std::uint64_t _grantsBatched = 0;

    obs::EventTracer *_tracer = nullptr;
    std::uint32_t _traceChannel = 0;
};

} // namespace corona::xbar

#endif // CORONA_XBAR_TOKEN_ARBITER_HH
