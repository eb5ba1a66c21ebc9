/**
 * @file
 * Bandwidth-limited link with back-pressure.
 *
 * The common serialization resource: a link transmits one message at a
 * time at a fixed byte rate, adds a fixed pipeline latency, and may be
 * blocked by a downstream CreditBuffer (wormhole-style hold until the
 * next stage has space). Mesh links, memory ports, and the OCM fibers are
 * all instances.
 */

#ifndef CORONA_NOC_LINK_HH
#define CORONA_NOC_LINK_HH

#include <array>
#include <functional>

#include "noc/buffer.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace corona::noc {

/**
 * An event-driven serializing link.
 *
 * Usage: configure an optional downstream buffer (for credit
 * back-pressure) and a sink callback (invoked at delivery time, after
 * serialization + latency). trySend() enqueues a message for
 * transmission and fails when the injection queue is full.
 */
class BandwidthLink
{
  public:
    /**
     * @param eq Event queue.
     * @param bytes_per_second Serialization rate.
     * @param latency Pipeline latency added after serialization, ticks.
     * @param queue_capacity Injection queue depth (>= 1).
     */
    BandwidthLink(sim::EventQueue &eq, double bytes_per_second,
                  sim::Tick latency, std::size_t queue_capacity);

    /** Attach a downstream buffer that must have space before a message
     * begins transmission (credit back-pressure). May be null. */
    void setDownstream(CreditBuffer *buf);

    /** Delivery callback; fires once per message after latency. When a
     * downstream buffer is attached, the callback must push into it with
     * the reservation already held (reserved=true). */
    void setSink(std::function<void(const Message &)> sink);

    /** Callback invoked whenever a slot frees in the injection queue
     * (used by routers to retry blocked forwards). */
    void onSpace(std::function<void()> cb) { _onSpace = std::move(cb); }

    /** True when the injection queue has space. */
    bool canAccept() const { return _queue.size() < _queueCapacity; }

    /** Enqueue @p msg; @return false when the queue is full. */
    bool trySend(const Message &msg);

    /** Drop queued traffic and zero statistics; sink/downstream/onSpace
     * wiring is kept. Requires the event queue to be reset too (any
     * in-flight serialization event would otherwise fire on a link
     * that no longer remembers it). */
    void
    reset()
    {
        _queue.clear();
        _busy = false;
        _waitingDownstream = false;
        _bytesSent = 0;
        _messagesSent = 0;
        _busyTime = 0;
        _queueWait.reset();
    }

    /** Serialization time of @p bytes on this link, ticks (>= 1). */
    sim::Tick serializationTime(std::uint32_t bytes) const;

    /** Bytes transmitted so far. */
    std::uint64_t bytesSent() const { return _bytesSent; }

    /** Messages transmitted so far. */
    std::uint64_t messagesSent() const { return _messagesSent; }

    /** Ticks this link spent transmitting. */
    sim::Tick busyTime() const { return _busyTime; }

    /** Queue waiting time statistics (ticks). */
    const stats::RunningStats &queueWait() const { return _queueWait; }

    double bytesPerSecond() const { return _bytesPerSecond; }

  private:
    void tryStart();
    void finishSerialization(Message msg);

    sim::EventQueue &_eq;
    double _bytesPerSecond;
    double _bytesPerTick;
    /** serializationTime() of each MsgKind's wire size. */
    std::array<sim::Tick, numMsgKinds> _kindTicks{};
    sim::Tick _latency;
    std::size_t _queueCapacity;

    struct Pending
    {
        Message msg;
        sim::Tick enqueued;
    };
    RingFifo<Pending> _queue;
    bool _busy = false;
    bool _waitingDownstream = false;
    CreditBuffer *_downstream = nullptr;
    std::function<void(const Message &)> _sink;
    std::function<void()> _onSpace;

    std::uint64_t _bytesSent = 0;
    std::uint64_t _messagesSent = 0;
    sim::Tick _busyTime = 0;
    stats::RunningStats _queueWait;
};

} // namespace corona::noc

#endif // CORONA_NOC_LINK_HH
