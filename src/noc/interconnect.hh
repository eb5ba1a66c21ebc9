/**
 * @file
 * Abstract on-stack interconnect interface.
 *
 * The evaluation compares three on-stack networks (XBar, HMesh, LMesh)
 * behind one interface: clusters inject messages; the network delivers
 * them to the destination cluster's hub with whatever arbitration,
 * serialization, contention, and flow control the concrete model imposes.
 */

#ifndef CORONA_NOC_INTERCONNECT_HH
#define CORONA_NOC_INTERCONNECT_HH

#include <functional>
#include <string>
#include <vector>

#include "noc/message.hh"
#include "stats/stats.hh"
#include "topology/geometry.hh"

namespace corona::noc {

/** Aggregate network statistics common to all interconnects. */
struct NetStats
{
    stats::Counter messages;        ///< Messages delivered.
    stats::Counter bytes;           ///< Payload+header bytes delivered.
    stats::RunningStats latency;    ///< Inject-to-deliver latency, ticks.
    stats::Counter hopTraversals;   ///< Sum over messages of hops taken
                                    ///< (drives the mesh power model).

    /** Fold @p other into this aggregate (deterministic: callers merge
     * per-destination lanes in destination order). */
    void
    merge(const NetStats &other)
    {
        messages.increment(other.messages.value());
        bytes.increment(other.bytes.value());
        latency.merge(other.latency);
        hopTraversals.increment(other.hopTraversals.value());
    }
};

/**
 * Base class for on-stack interconnect models.
 */
class Interconnect
{
  public:
    using Deliver = std::function<void(const Message &)>;

    virtual ~Interconnect() = default;

    /** Register the delivery callback (invoked at the destination hub). */
    void setDeliver(Deliver deliver) { _deliver = std::move(deliver); }

    /**
     * Inject a message. Always accepted: end-to-end outstanding traffic
     * is bounded by the clusters' MSHR files, and internal finite buffers
     * impose queueing and back-pressure on the path.
     */
    virtual void send(const Message &msg) = 0;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /** Hops a src->dst message traverses (1 for the crossbar). */
    virtual std::size_t hopCount(topology::ClusterId src,
                                 topology::ClusterId dst) const = 0;

    /**
     * Restore the pristine post-construction state: drop queued
     * traffic, zero statistics. Delivery wiring (setDeliver) is kept —
     * it binds the network to its owning system, not to one run. Only
     * meaningful when the shared EventQueue is reset alongside.
     */
    virtual void
    reset()
    {
        for (NetStats &lane : _stats)
            lane = NetStats{};
    }

    /**
     * The aggregate statistics. With per-destination lanes this merges
     * in destination order on every call — deterministic, and safe
     * only while the simulation is quiescent (end of run, or a window
     * barrier).
     */
    const NetStats &
    netStats() const
    {
        if (_stats.size() == 1)
            return _stats[0];
        _merged = NetStats{};
        for (const NetStats &lane : _stats)
            _merged.merge(lane);
        return _merged;
    }

    /**
     * Split the delivery statistics into one lane per destination
     * cluster. Sharded executors home each crossbar channel — and so
     * each destination's delivered() calls — on its own shard; lanes
     * make those updates single-writer without locks, and the
     * destination-ordered merge keeps the aggregate bit-identical at
     * any shard count.
     */
    void
    shardStatsByDestination(std::size_t destinations)
    {
        _stats.assign(destinations > 0 ? destinations : 1, NetStats{});
    }

  protected:
    /** Concrete models call this exactly once per delivered message. */
    void
    delivered(const Message &msg, sim::Tick now, std::size_t hops)
    {
        NetStats &lane =
            _stats.size() == 1 ? _stats[0] : _stats[msg.dst];
        lane.messages.increment();
        lane.bytes.increment(msg.bytes());
        lane.latency.sample(static_cast<double>(now - msg.injected));
        lane.hopTraversals.increment(hops);
        if (_deliver)
            _deliver(msg);
    }

  private:
    Deliver _deliver;
    /** One lane in the serial layout; one per destination cluster
     * when shardStatsByDestination() split them. */
    std::vector<NetStats> _stats = std::vector<NetStats>(1);
    mutable NetStats _merged;
};

} // namespace corona::noc

#endif // CORONA_NOC_INTERCONNECT_HH
