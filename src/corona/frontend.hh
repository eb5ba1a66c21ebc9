/**
 * @file
 * Coherent traffic-injection front end.
 *
 * The miss-stream front end injects workload records straight into the
 * hub as L2 misses. This front end instead treats each record as a
 * memory *reference*: it filters it through the cluster's private
 * L1/L2 hierarchy, runs the MOESI directory protocol on misses and
 * upgrades, and turns the protocol's transported messages into real
 * network traffic — unicast invalidates and owner forwards as
 * header-only crossbar/mesh messages, pool-invalidations as broadcast
 * bus transmissions (Section 3.2.2), and dirty writebacks as sideband
 * WriteReqs nobody waits on.
 *
 * A pass-through hierarchy (l1_kib = l2_kib = 0) retains nothing, so no
 * sharing can arise and every reference is a miss: the front end then
 * delegates each access directly to Hub::issueMiss, reproducing the
 * miss-stream front end bit for bit (the parity gate).
 */

#ifndef CORONA_CORONA_FRONTEND_HH
#define CORONA_CORONA_FRONTEND_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "coherence/coherent_system.hh"
#include "corona/config.hh"
#include "corona/hub.hh"
#include "sim/event_queue.hh"
#include "xbar/broadcast_bus.hh"

namespace corona::obs {
class EventTracer;
class Registry;
} // namespace corona::obs

namespace corona::core {

class CoronaSystem;

/**
 * Per-reference cache filtering + event-ized coherence traffic.
 */
class CoherentFrontEnd
{
  public:
    /** Outcome of injecting one reference. */
    enum class Outcome
    {
        Hit,       ///< Filtered by the hierarchy; fill after local_hop.
        Sent,      ///< Primary miss entered the system.
        Coalesced, ///< Attached to an in-flight miss on the same line.
        MshrFull,  ///< Stalled; retry via Hub::stallOnMshr.
    };

    CoherentFrontEnd(sim::EventQueue &eq, CoronaSystem &system,
                     const SystemConfig &config);

    /**
     * Inject one reference from @p cluster. On a local hit the hub
     * wakes @p waiter after one hub traversal; otherwise the reference
     * becomes a hub miss and @p waiter's fill runs when the data
     * returns. The hierarchy and protocol are only mutated once the
     * MSHR admission decision is known, so an MshrFull retry replays
     * cleanly.
     */
    Outcome access(topology::ClusterId cluster, topology::Addr line,
                   topology::ClusterId home, bool write, Hub::Waiter waiter);

    /** Network delivered a sideband coherence message (Invalidate). */
    void deliverSideband(const noc::Message &msg);

    /** Cold hierarchies, cold directory, zeroed counters. */
    void reset();

    /** Publish cache/... and coherence/... registry paths. */
    void instrument(obs::Registry &registry);

    /** Record coherence-message spans (invalidations, forwards,
     * writebacks, broadcast snoops) into @p tracer; nullptr detaches. */
    void setTracer(obs::EventTracer *tracer) { _tracer = tracer; }

    /** True when no cache level is configured (parity mode). */
    bool passThrough() const { return _passThrough; }

    const cache::ClusterHierarchy &
    hierarchy(std::size_t cluster) const
    {
        return _hierarchies.at(cluster);
    }
    const coherence::CoherentSystem &coherence() const { return _coherence; }
    const xbar::BroadcastBus *broadcastBus() const { return _bus.get(); }

    /** Sideband (header-only Invalidate-kind) messages injected. */
    std::uint64_t sidebandMessages() const { return _sidebandMessages; }
    /** Pool invalidations issued (bus transmissions, or unicast fans
     * on mesh systems). */
    std::uint64_t broadcasts() const { return _broadcasts; }
    /** Delivered invalidations that found / missed a resident line. */
    std::uint64_t invalHits() const { return _invalHits; }
    std::uint64_t invalMisses() const { return _invalMisses; }
    /** Writebacks injected (PutM + write-through stores). */
    std::uint64_t writebacks() const { return _writebacks; }

    /** Lines must fit below the tag's subtype bits. */
    static constexpr topology::Addr maxLine = 1ull << 60;

  private:
    /** Run the protocol + hierarchy for an admitted reference. */
    void applyReference(topology::ClusterId cluster, topology::Addr line,
                        topology::ClusterId home, bool write);

    /** Map one emitted protocol message onto network traffic. */
    void emitProtocol(coherence::CoherenceMsg msg, std::size_t from,
                      std::size_t to, topology::Addr line);

    /** Send a header-only sideband message (local_hop when src==dst). */
    void sendSideband(coherence::CoherenceMsg msg, topology::ClusterId src,
                      topology::ClusterId dst, topology::Addr line);

    /** Apply a delivered invalidation snoop at @p cluster. */
    void snoop(coherence::CoherenceMsg msg, topology::ClusterId cluster,
               topology::Addr line);

    /** Trace one writeback injection (zero-width span at issue). */
    void recordWriteback(topology::ClusterId cluster,
                         topology::ClusterId home);

    /** Home the protocol bound @p line to; panics when no access
     * named the line. */
    topology::ClusterId homeOf(topology::Addr line) const;

    static std::uint64_t encodeTag(coherence::CoherenceMsg msg,
                                   topology::Addr line);
    static coherence::CoherenceMsg decodeMsg(std::uint64_t tag);
    static topology::Addr decodeLine(std::uint64_t tag);

    sim::EventQueue &_eq;
    CoronaSystem &_system;
    sim::Tick _localHop;
    bool _writeThrough;
    bool _passThrough;

    std::vector<cache::ClusterHierarchy> _hierarchies;
    coherence::CoherentSystem _coherence;
    std::unique_ptr<xbar::BroadcastBus> _bus; ///< XBar systems only.

    obs::EventTracer *_tracer = nullptr; ///< Not owned; may be null.
    std::uint64_t _sidebandMessages = 0;
    std::uint64_t _broadcasts = 0;
    std::uint64_t _invalHits = 0;
    std::uint64_t _invalMisses = 0;
    std::uint64_t _writebacks = 0;
};

} // namespace corona::core

#endif // CORONA_CORONA_FRONTEND_HH
