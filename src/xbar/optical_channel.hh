/**
 * @file
 * Many-writer single-reader DWDM crossbar channel (Section 3.2.1).
 *
 * Each destination cluster owns one channel: a 4-waveguide, 256-wavelength
 * bundle laid out as a broken ring originating (and terminating) at the
 * home cluster. Any cluster modulates the home's light to send; only the
 * home detects. Modulating on both clock edges, the 256 lambdas move 64
 * bytes per 5 GHz clock (2.56 Tb/s per channel).
 *
 * A message's life: queue at its source, reserve a slot in the home's
 * finite input buffer (flow control), divert the channel token
 * (arbitration), modulate (serialization at 64 B/clock), propagate (ring
 * distance at 25 ps/hop, plus one clock of retiming when crossing the
 * serpentine wrap), land in the home buffer, and drain into the hub.
 *
 * Every cluster may write every channel, so a channel keeps one sending
 * queue per source: clusters^2 queues system-wide. They share one pool
 * of message nodes per channel, and a source holds only its list's
 * head and tail indices.
 */

#ifndef CORONA_XBAR_OPTICAL_CHANNEL_HH
#define CORONA_XBAR_OPTICAL_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "noc/buffer.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "photonics/optical_clock.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "xbar/token_arbiter.hh"

namespace corona::xbar {

/** Tunable parameters of a crossbar channel. */
struct ChannelParams
{
    /** Bytes moved per clock by the full bundle (256 lambdas DDR). */
    std::uint32_t bytes_per_clock = 64;
    /** Home-cluster input buffer depth, messages. */
    std::size_t sink_buffer_depth = 16;
    /** Serpentine loop time in clocks (Section 3.2.1: at most 8). */
    std::size_t loop_clocks = 8;
    /** Messages a sender may modulate per token grant before it must
     * re-inject the token. "When a cluster finishes sending ... it
     * releases the channel" — a bounded batch counts the queued
     * backlog as one sending episode while preserving round-robin
     * fairness under contention. */
    std::size_t max_batch = 16;
    /** Extra per-cluster dwell time of the token, ticks. Corona's
     * token flies past non-participating clusters (0); prior optical
     * token rings stop at every node to sample it electrically
     * (Section 6) — set one clock here to model that scheme. */
    sim::Tick token_node_pause = 0;

    bool operator==(const ChannelParams &) const = default;
};

/**
 * One MWSR optical channel with its token arbiter.
 *
 * Messages waiting at their sources live in the channel's own node
 * pool: a vector of {message, next} nodes with a LIFO free list, each
 * source linking its FIFO through it by index. The pool only grows to
 * the channel's peak backlog and reset() keeps its storage. Under the
 * sharded executor a channel runs on its home cluster's shard, so the
 * pool is never shared between threads.
 */
class OpticalChannel
{
  public:
    using Deliver = std::function<void(const noc::Message &)>;

    /**
     * @param eq Event queue.
     * @param clock Digital clock domain (5 GHz).
     * @param clusters Ring endpoints.
     * @param home Reading (destination) cluster.
     * @param params Channel parameters.
     */
    OpticalChannel(sim::EventQueue &eq, const sim::ClockDomain &clock,
                   std::size_t clusters, topology::ClusterId home,
                   const ChannelParams &params = {});

    /** Register the home hub's delivery callback. */
    void setDeliver(Deliver deliver) { _deliver = std::move(deliver); }

    /**
     * Send @p msg (msg.dst must equal home()). Messages from one source
     * are delivered in order; distinct sources interleave under token
     * arbitration.
     */
    void send(const noc::Message &msg);

    topology::ClusterId home() const { return _home; }

    /** Serialization time of @p bytes, ticks (whole clocks). */
    sim::Tick serializationTime(std::uint32_t bytes) const;

    /** Propagation from @p src to the home, ticks. */
    sim::Tick propagationTime(topology::ClusterId src) const;

    const TokenArbiter &arbiter() const { return _arbiter; }

    /** Channel data bandwidth, bytes per second. */
    double bandwidthBytesPerSecond() const;

    /** Messages delivered to the home hub. */
    std::uint64_t messagesDelivered() const { return _messagesDelivered; }

    /** Bytes delivered to the home hub. */
    std::uint64_t bytesDelivered() const { return _bytesDelivered; }

    /** Ticks the channel spent modulating (busy). */
    sim::Tick busyTime() const { return _busyTime; }

    /** Messages occupying the home input buffer right now. */
    std::size_t sinkDepth() const { return _sink.size(); }

    /** Messages queued at sources awaiting the token. */
    std::size_t queuedMessages() const { return _queued; }

    /**
     * Attach a trace sink (null detaches) to the channel and its
     * arbiter: modulation grants and token handoffs get recorded.
     * Observability wiring, like setDeliver: reset() keeps it.
     */
    void
    setTracer(obs::EventTracer *tracer)
    {
        _tracer = tracer;
        _arbiter.setTracer(tracer, static_cast<std::uint32_t>(_home));
    }

    /** Restore the pristine post-construction state: empty queues, a
     * free token, zeroed statistics. Delivery wiring and the node
     * pool's storage are kept. Requires the event queue to be reset
     * alongside. */
    void reset();

  private:
    /** Null node index: end of a list. */
    static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

    /** A pooled queued message, linked into its source's FIFO or the
     * free list. */
    struct Node
    {
        noc::Message msg;
        std::uint32_t next;
    };

    /** Per-source sending state: the FIFO of queued messages awaiting
     * the token, as node indices into the channel's pool. */
    struct Source
    {
        std::uint32_t head = kNoNode;
        std::uint32_t tail = kNoNode;
        bool arbitrating = false;
        bool creditHeld = false;
        /** Parked in _creditWaiters awaiting a home-buffer slot. */
        bool creditQueued = false;
    };

    /** Begin arbitration for a source when it has work and credit. */
    void tryArbitrate(topology::ClusterId src);

    /** Token granted: modulate up to max_batch queued messages. */
    void transmit(topology::ClusterId src);

    /** Modulate the head message; continue the batch or release. */
    void sendNext(topology::ClusterId src, std::size_t remaining);

    /** Kick the clocked hub-drain process. */
    void startDrain();

    /** Drain one message from the sink into the hub. */
    void drainOne();

    sim::EventQueue &_eq;
    const sim::ClockDomain &_clock;
    std::size_t _clusters;
    topology::ClusterId _home;
    ChannelParams _params;

    TokenArbiter _arbiter;
    photonics::OpticalClock _opticalClock;
    noc::CreditBuffer _sink;
    std::vector<Source> _sources;
    /** Node pool behind every source's FIFO; nodes are held by index
     * because a push may reallocate it. */
    std::vector<Node> _nodes;
    std::uint32_t _freeNodes = kNoNode;
    std::size_t _queued = 0;
    /** Sources parked awaiting a home-buffer slot, oldest first. */
    noc::RingFifo<topology::ClusterId> _creditWaiters;
    Deliver _deliver;

    std::uint64_t _messagesDelivered = 0;
    std::uint64_t _bytesDelivered = 0;
    sim::Tick _busyTime = 0;
    bool _draining = false;
    obs::EventTracer *_tracer = nullptr;
};

} // namespace corona::xbar

#endif // CORONA_XBAR_OPTICAL_CHANNEL_HH
