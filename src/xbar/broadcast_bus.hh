/**
 * @file
 * Optical broadcast bus (Section 3.2.2).
 *
 * A single waveguide coils past every cluster twice. Light sourced at the
 * coil's head is modulated by the sender on the first pass; on the second
 * pass each cluster's splitter taps a fraction into a dead-end detector
 * stub, so one transmission reaches all 64 clusters. Used by the MOESI
 * protocol to invalidate a large sharer pool with a single message,
 * avoiding the unicast-invalidate storms a pure crossbar would need.
 * Access is arbitrated by a single broadcast token.
 */

#ifndef CORONA_XBAR_BROADCAST_BUS_HH
#define CORONA_XBAR_BROADCAST_BUS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "xbar/token_arbiter.hh"

namespace corona::xbar {

/** Broadcast bus parameters. */
struct BroadcastParams
{
    /** Bytes per clock on the 64-lambda bus (DDR): 16 B. */
    std::uint32_t bytes_per_clock = 16;
    /** Clocks for one full coil pass (same serpentine: 8). */
    std::size_t pass_clocks = 8;
};

/**
 * Token-arbitrated one-to-all optical bus.
 */
class BroadcastBus
{
  public:
    /** Callback invoked once per (message, receiving cluster). */
    using Deliver =
        std::function<void(const noc::Message &, topology::ClusterId)>;

    BroadcastBus(sim::EventQueue &eq, const sim::ClockDomain &clock,
                 std::size_t clusters, const BroadcastParams &params = {});

    void setDeliver(Deliver deliver) { _deliver = std::move(deliver); }

    /**
     * Broadcast @p msg from msg.src to every cluster (including the
     * sender, whose own snoop is harmless). Delivery times follow each
     * receiver's position on the second coil pass.
     */
    void broadcast(const noc::Message &msg);

    /** Serialization time for @p bytes, ticks. */
    sim::Tick serializationTime(std::uint32_t bytes) const;

    const TokenArbiter &arbiter() const { return _arbiter; }

    std::uint64_t broadcastsSent() const { return _broadcasts; }

    /**
     * Attach a trace sink to the broadcast token arbiter (null
     * detaches). Handoffs are tagged one past the last channel home,
     * distinguishing the bus token from the per-channel tokens.
     */
    void
    setTracer(obs::EventTracer *tracer)
    {
        _arbiter.setTracer(tracer, static_cast<std::uint32_t>(_clusters));
    }

    /** Drop queued broadcasts and statistics (pool lease boundary).
     * Requires the event queue to be reset alongside. */
    void
    reset()
    {
        _queue.clear();
        _inFlight.clear();
        _freeSlots.clear();
        _arbitrating = false;
        _broadcasts = 0;
        _arbiter.reset();
    }

  private:
    /** A transmitted message and the deliveries still to run. */
    struct InFlight
    {
        noc::Message msg;
        std::size_t pending = 0;
    };

    void transmit();

    /** Run delivery @p k of in-flight record @p slot; the last one
     * frees the record. */
    void deliver(std::uint32_t slot, topology::ClusterId k);

    sim::EventQueue &_eq;
    const sim::ClockDomain &_clock;
    std::size_t _clusters;
    BroadcastParams _params;
    TokenArbiter _arbiter;
    Deliver _deliver;
    /** Broadcasts waiting for the token, oldest first. */
    noc::RingFifo<noc::Message> _queue;
    /** Transmitted messages, by slot: each delivery event captures a
     * slot rather than the 40-B message, so a transmission's
     * deliveries share one copy and never allocate. */
    std::vector<InFlight> _inFlight;
    std::vector<std::uint32_t> _freeSlots;
    bool _arbitrating = false;
    std::uint64_t _broadcasts = 0;
};

} // namespace corona::xbar

#endif // CORONA_XBAR_BROADCAST_BUS_HH
