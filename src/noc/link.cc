#include "noc/link.hh"

#include <cmath>
#include <stdexcept>

#include "sim/logging.hh"

namespace corona::noc {

BandwidthLink::BandwidthLink(sim::EventQueue &eq, double bytes_per_second,
                             sim::Tick latency, std::size_t queue_capacity)
    : _eq(eq), _bytesPerSecond(bytes_per_second), _latency(latency),
      _queueCapacity(queue_capacity)
{
    if (bytes_per_second <= 0)
        throw std::invalid_argument("BandwidthLink: bad rate");
    if (queue_capacity == 0)
        throw std::invalid_argument("BandwidthLink: bad queue capacity");
    _bytesPerTick = bytes_per_second / static_cast<double>(sim::oneSecond);
    for (std::size_t kind = 0; kind < numMsgKinds; ++kind)
        _kindTicks[kind] =
            serializationTime(wireBytes(static_cast<MsgKind>(kind)));
}

void
BandwidthLink::setDownstream(CreditBuffer *buf)
{
    _downstream = buf;
    if (_downstream) {
        _downstream->onDrain([this] {
            if (_waitingDownstream) {
                _waitingDownstream = false;
                tryStart();
            }
        });
    }
}

void
BandwidthLink::setSink(std::function<void(const Message &)> sink)
{
    _sink = std::move(sink);
}

sim::Tick
BandwidthLink::serializationTime(std::uint32_t bytes) const
{
    const double ticks = static_cast<double>(bytes) / _bytesPerTick;
    const auto t = static_cast<sim::Tick>(std::ceil(ticks));
    return t == 0 ? 1 : t;
}

bool
BandwidthLink::trySend(const Message &msg)
{
    if (!canAccept())
        return false;
    _queue.push_back(Pending{msg, _eq.now()});
    tryStart();
    return true;
}

void
BandwidthLink::tryStart()
{
    if (_busy || _queue.empty())
        return;
    if (_downstream && !_downstream->reserve()) {
        // Blocked on credits; the drain callback restarts us.
        _waitingDownstream = true;
        return;
    }
    Pending pending = _queue.front();
    _queue.pop_front();
    _queueWait.sample(static_cast<double>(_eq.now() - pending.enqueued));
    _busy = true;
    const sim::Tick ser =
        _kindTicks[static_cast<std::size_t>(pending.msg.kind)];
    _busyTime += ser;
    _eq.scheduleIn(ser, [this, msg = pending.msg] {
        finishSerialization(msg);
    });
    // Notify last: the callback may re-enter trySend/tryStart and must
    // observe the link as busy, or two transmissions would overlap.
    if (_onSpace)
        _onSpace();
}

void
BandwidthLink::finishSerialization(Message msg)
{
    _busy = false;
    ++_messagesSent;
    _bytesSent += msg.bytes();
    // Delivery happens after the pipeline latency; the downstream
    // reservation (if any) is consumed by the sink's push.
    _eq.scheduleIn(_latency, [this, msg] {
        if (!_sink)
            sim::panic("BandwidthLink: no sink configured");
        _sink(msg);
    });
    tryStart();
}

} // namespace corona::noc
