#include "xbar/broadcast_bus.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::xbar {

BroadcastBus::BroadcastBus(sim::EventQueue &eq,
                           const sim::ClockDomain &clock,
                           std::size_t clusters,
                           const BroadcastParams &params)
    : _eq(eq), _clock(clock), _clusters(clusters), _params(params),
      _arbiter(eq, clusters, params.pass_clocks * clock.period() / clusters)
{
    if (clusters < 2)
        throw std::invalid_argument("BroadcastBus: need >= 2 clusters");
    _arbiter.onGrant([this](topology::ClusterId) { transmit(); });
}

sim::Tick
BroadcastBus::serializationTime(std::uint32_t bytes) const
{
    const std::uint32_t clocks =
        (bytes + _params.bytes_per_clock - 1) / _params.bytes_per_clock;
    return (clocks == 0 ? 1 : clocks) * _clock.period();
}

void
BroadcastBus::broadcast(const noc::Message &msg)
{
    noc::Message stamped = msg;
    stamped.injected = _eq.now();
    _queue.push_back(stamped);
    if (!_arbitrating) {
        _arbitrating = true;
        _arbiter.request(msg.src);
    }
}

void
BroadcastBus::transmit()
{
    if (_queue.empty())
        sim::panic("BroadcastBus::transmit: queue empty");
    const noc::Message msg = _queue.front();
    _queue.pop_front();

    _eq.scheduleIn(serializationTime(msg.bytes()), [this, msg] {
        _arbiter.release(msg.src);
        ++_broadcasts;

        auto slot = static_cast<std::uint32_t>(_inFlight.size());
        if (_freeSlots.empty()) {
            _inFlight.emplace_back();
        } else {
            slot = _freeSlots.back();
            _freeSlots.pop_back();
        }
        _inFlight[slot] = InFlight{msg, _clusters};

        // The sender modulated at coil position msg.src on the first
        // pass; a receiver at position k reads on the second pass after
        // the remaining first-pass distance plus k hops into pass two.
        const sim::Tick hop = _arbiter.hopTime();
        for (topology::ClusterId k = 0; k < _clusters; ++k) {
            const sim::Tick remaining_first =
                (_clusters - msg.src) * hop;
            const sim::Tick delay = remaining_first + k * hop;
            _eq.scheduleIn(delay, [this, slot, k] { deliver(slot, k); });
        }

        _arbitrating = false;
        if (!_queue.empty()) {
            _arbitrating = true;
            _arbiter.request(_queue.front().src);
        }
    });
}

void
BroadcastBus::deliver(std::uint32_t slot, topology::ClusterId k)
{
    // Slots are taken only when a transmission ends, never during a
    // delivery, so the record stays in place across the callback.
    InFlight &record = _inFlight[slot];
    if (_deliver)
        _deliver(record.msg, k);
    if (--record.pending == 0)
        _freeSlots.push_back(slot);
}

} // namespace corona::xbar
