#include "xbar/optical_channel.hh"

#include <stdexcept>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace corona::xbar {

OpticalChannel::OpticalChannel(sim::EventQueue &eq,
                               const sim::ClockDomain &clock,
                               std::size_t clusters,
                               topology::ClusterId home,
                               const ChannelParams &params)
    : _eq(eq), _clock(clock), _clusters(clusters), _home(home),
      _params(params),
      _arbiter(eq, clusters,
               params.loop_clocks * clock.period() / clusters +
                   params.token_node_pause),
      _opticalClock(clusters, clock, params.loop_clocks),
      _sink(params.sink_buffer_depth), _sources(clusters)
{
    if (home >= clusters)
        throw std::invalid_argument("OpticalChannel: bad home cluster");
    _arbiter.onGrant([this](topology::ClusterId src) { transmit(src); });
    // When the home hub drains a message, hand freed slots to the
    // longest-waiting blocked sources.
    _sink.onDrain([this] {
        while (!_creditWaiters.empty() && _sink.hasCredit()) {
            const topology::ClusterId src = _creditWaiters.front();
            _creditWaiters.pop_front();
            _sources[src].creditQueued = false;
            tryArbitrate(src);
        }
    });
}

sim::Tick
OpticalChannel::serializationTime(std::uint32_t bytes) const
{
    const std::uint32_t clocks =
        (bytes + _params.bytes_per_clock - 1) / _params.bytes_per_clock;
    return (clocks == 0 ? 1 : clocks) * _clock.period();
}

sim::Tick
OpticalChannel::propagationTime(topology::ClusterId src) const
{
    if (src >= _clusters)
        throw std::out_of_range("OpticalChannel: bad source");
    // Light travels clockwise from the modulating cluster to the home
    // detectors; a same-cluster "send" (loopback) still circles the ring.
    std::size_t hops = (_home + _clusters - src) % _clusters;
    if (hops == 0)
        hops = _clusters;
    return hops * _opticalClock.hopTime() +
           _opticalClock.retimingPenalty(src, _home);
}

double
OpticalChannel::bandwidthBytesPerSecond() const
{
    return static_cast<double>(_params.bytes_per_clock) *
           _clock.frequencyHz();
}

void
OpticalChannel::send(const noc::Message &msg)
{
    if (msg.dst != _home)
        sim::panic("OpticalChannel::send: message for another channel");
    if (msg.src >= _clusters)
        sim::panic("OpticalChannel::send: bad source cluster");
    std::uint32_t node = _freeNodes;
    if (node != kNoNode) {
        _freeNodes = _nodes[node].next;
    } else {
        node = static_cast<std::uint32_t>(_nodes.size());
        _nodes.emplace_back();
    }
    _nodes[node].msg = msg;
    _nodes[node].msg.injected = _eq.now();
    _nodes[node].next = kNoNode;

    Source &source = _sources[msg.src];
    if (source.tail == kNoNode)
        source.head = node;
    else
        _nodes[source.tail].next = node;
    source.tail = node;
    ++_queued;
    tryArbitrate(msg.src);
}

void
OpticalChannel::tryArbitrate(topology::ClusterId src)
{
    Source &source = _sources[src];
    if (source.arbitrating || source.head == kNoNode)
        return;
    if (!source.creditHeld) {
        if (source.creditQueued)
            return; // Already parked; the drain handler will retry.
        if (!_sink.reserve()) {
            // Home buffer full: wait for a drain (flow control delays
            // the message before arbitration, as in Section 5).
            source.creditQueued = true;
            _creditWaiters.push_back(src);
            return;
        }
        source.creditHeld = true;
    }
    source.arbitrating = true;
    _arbiter.request(src);
}

void
OpticalChannel::transmit(topology::ClusterId src)
{
    sendNext(src, _params.max_batch);
}

void
OpticalChannel::sendNext(topology::ClusterId src, std::size_t remaining)
{
    const std::uint32_t head = _sources[src].head;
    if (head == kNoNode)
        sim::panic("OpticalChannel::sendNext: nothing pending");

    // The head message stays queued until its serialization completes
    // (the source is arbitrating, so nothing else consumes it) — the
    // scheduled event then captures only (this, src, remaining) and
    // fits the kernel's inline buffer.
    const sim::Tick ser = serializationTime(_nodes[head].msg.bytes());
    _busyTime += ser;
    if (_tracer)
        _tracer->record(obs::TraceKind::ChannelGrant, _home, _eq.now(),
                        _eq.now() + ser, src);

    _eq.scheduleIn(ser, [this, src, remaining] {
        Source &source = _sources[src];
        const std::uint32_t node = source.head;
        const noc::Message msg = _nodes[node].msg;
        source.head = _nodes[node].next;
        if (source.head == kNoNode)
            source.tail = kNoNode;
        _nodes[node].next = _freeNodes;
        _freeNodes = node;
        --_queued;

        _eq.scheduleIn(propagationTime(src), [this, msg] {
            _sink.push(msg, /*reserved=*/true);
            startDrain();
        });

        source.creditHeld = false; // Consumed by the in-flight message.

        // Continue the batch while the budget, the backlog, and the
        // home buffer's credits allow.
        if (remaining > 1 && source.head != kNoNode && _sink.reserve()) {
            source.creditHeld = true;
            sendNext(src, remaining - 1);
            return;
        }

        // Batch over: re-inject the token; it travels in parallel with
        // the message tail (Section 3.2.3).
        _arbiter.release(src);
        source.arbitrating = false;
        tryArbitrate(src);
    });
}

void
OpticalChannel::startDrain()
{
    if (_draining || _sink.empty())
        return;
    _draining = true;
    // The hub consumes one message per clock edge.
    _eq.schedule(_clock.edgeAfter(_eq.now()), [this] { drainOne(); });
}

void
OpticalChannel::reset()
{
    _arbiter.reset();
    _sink.reset();
    for (Source &source : _sources)
        source = Source{};
    _nodes.clear();
    _freeNodes = kNoNode;
    _queued = 0;
    _creditWaiters.clear();
    _messagesDelivered = 0;
    _bytesDelivered = 0;
    _busyTime = 0;
    _draining = false;
}

void
OpticalChannel::drainOne()
{
    _draining = false;
    if (_sink.empty())
        return;
    const noc::Message out = _sink.pop();
    ++_messagesDelivered;
    _bytesDelivered += out.bytes();
    if (_deliver)
        _deliver(out);
    startDrain();
}

} // namespace corona::xbar
