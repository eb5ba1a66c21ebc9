#include "mesh/router.hh"

#include <cmath>
#include <stdexcept>

#include "sim/logging.hh"

namespace corona::mesh {

HopTiming
hopTiming(double link_bytes_per_second, sim::Tick hop_latency)
{
    if (!(link_bytes_per_second > 0))
        throw std::invalid_argument("mesh link: bad rate");
    const double bytes_per_tick =
        link_bytes_per_second / static_cast<double>(sim::oneSecond);
    HopTiming timing;
    for (std::size_t kind = 0; kind < noc::numMsgKinds; ++kind) {
        const double ticks =
            static_cast<double>(
                noc::wireBytes(static_cast<noc::MsgKind>(kind))) /
            bytes_per_tick;
        const auto t = static_cast<sim::Tick>(std::ceil(ticks));
        timing.serialization[kind] = t == 0 ? 1 : t;
    }
    timing.latency = hop_latency;
    return timing;
}

Router::Router(sim::EventQueue &eq, const topology::Geometry &geom,
               topology::ClusterId id, const HopTiming &timing,
               const RouterParams &params)
    : _eq(eq), _id(id), _timing(timing),
      _inputDepth(params.input_buffer_depth),
      _portDepth(params.link_queue_depth)
{
    if (_inputDepth == 0)
        throw std::invalid_argument("Router: bad input buffer depth");
    if (_portDepth == 0)
        throw std::invalid_argument("Router: bad link queue depth");
    _routes.reserve(geom.clusters());
    for (topology::ClusterId dst = 0; dst < geom.clusters(); ++dst)
        _routes.push_back(route(geom, id, dst));
    for (OutputPort &port : _ports)
        port.owner = this;
}

void
Router::connect(Direction d, Router &next_router)
{
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= 4)
        sim::panic("Router::connect: Local has no link");
    const auto arrival = static_cast<std::size_t>(opposite(d));
    OutputPort &port = _ports[idx];
    port.next = &next_router;
    port.arrival = static_cast<std::uint8_t>(arrival);
    next_router._inputs[arrival].upstream = &port;
}

void
Router::inject(const noc::Message &msg)
{
    _injection.push_back(msg);
    _nonEmpty |= 1u << injectionStage;
    process();
}

std::size_t
Router::inputDepth(Direction d) const
{
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= 4)
        sim::panic("Router::inputDepth: Local has no input buffer");
    return _inputs[idx].fifo.size() + _inputs[idx].reserved;
}

void
Router::reset()
{
    for (InputBuffer &input : _inputs) {
        input.fifo.clear();
        input.reserved = 0;
    }
    _injection.clear();
    for (OutputPort &port : _ports) {
        port.queue.clear();
        port.busy = false;
        port.waitingForCredit = false;
    }
    _nonEmpty = 0;
    _rr = 0;
    _processing = false;
    _reprocess = false;
}

void
Router::tryStart(OutputPort &port)
{
    if (port.busy || port.queue.empty())
        return;
    InputBuffer &input = port.next->_inputs[port.arrival];
    if (input.fifo.size() + input.reserved >= port.next->_inputDepth) {
        // Popping that input restarts us.
        port.waitingForCredit = true;
        return;
    }
    ++input.reserved;
    const noc::Message msg = port.queue.front();
    port.queue.pop_front();
    port.busy = true;
    const auto kind = static_cast<std::size_t>(msg.kind);
    _eq.scheduleIn(_timing.serialization[kind], [&port, msg] {
        port.owner->finishSerialization(port, msg);
    });
    // Forward last: the pass may queue onto this port again and must
    // see it busy, or two transmissions would overlap.
    process();
}

void
Router::finishSerialization(OutputPort &port, const noc::Message &msg)
{
    port.busy = false;
    _eq.scheduleIn(_timing.latency, [&port, msg] {
        port.next->receive(port.arrival, msg);
    });
    tryStart(port);
}

void
Router::receive(std::size_t arrival, const noc::Message &msg)
{
    InputBuffer &input = _inputs[arrival];
    if (input.reserved == 0)
        sim::panic("Router: delivery without a reserved credit");
    --input.reserved;
    input.fifo.push_back(msg);
    _nonEmpty |= 1u << arrival;
    process();
}

void
Router::popStage(std::size_t stage)
{
    if (stage == injectionStage) {
        _injection.pop_front();
        if (_injection.empty())
            _nonEmpty &= ~(1u << stage);
        return;
    }
    // The pop returns a credit upstream; emptiness is read after the
    // restart it fires has run.
    InputBuffer &input = _inputs[stage];
    input.fifo.pop_front();
    if (OutputPort *upstream = input.upstream;
        upstream != nullptr && upstream->waitingForCredit) {
        upstream->waitingForCredit = false;
        upstream->owner->tryStart(*upstream);
    }
    if (input.fifo.empty())
        _nonEmpty &= ~(1u << stage);
}

bool
Router::tryForward(std::size_t stage)
{
    const noc::Message &msg = stage == injectionStage
                                  ? _injection.front()
                                  : _inputs[stage].fifo.front();
    const Direction out = _routes[msg.dst];
    if (out == Direction::Local) {
        const noc::Message delivered = msg;
        popStage(stage);
        if (!_eject)
            sim::panic("Router: no ejection callback");
        _eject(delivered);
        return true;
    }
    OutputPort &port = _ports[static_cast<std::size_t>(out)];
    if (port.next == nullptr)
        sim::panic("Router: dimension-order route off the mesh edge");
    if (port.queue.size() >= _portDepth)
        return false; // Port queue full; its next start retries.
    port.queue.push_back(msg);
    tryStart(port);
    popStage(stage);
    return true;
}

void
Router::process()
{
    // Calls made from within the loop (a port starting a transmission,
    // eject, pushes into neighbours that loop back) re-enter process();
    // flatten the recursion into another pass of the loop.
    if (_processing) {
        _reprocess = true;
        return;
    }
    _processing = true;
    _reprocess = false;
    // Keep moving messages while any stage makes progress; round-robin
    // the starting stage so no input starves. A stage whose bit is
    // clear is empty, so visiting it would move nothing and change
    // nothing: skipping it keeps every pass's order and effects.
    const auto next = [](std::size_t stage) {
        return stage + 1 == numStages ? 0 : stage + 1;
    };
    bool progress = true;
    while (progress) {
        progress = false;
        std::size_t stage = _rr;
        for (std::size_t i = 0; i < numStages; ++i) {
            if (((_nonEmpty >> stage) & 1u) != 0 && tryForward(stage))
                progress = true;
            stage = next(stage);
        }
        _rr = next(_rr);
    }
    // A re-entry flagged above asks for one more round of passes. The
    // last pass moved nothing, and a pass that moves nothing has no
    // side effects, so that round would be exactly one more empty pass:
    // only its round-robin step remains.
    if (_reprocess)
        _rr = next(_rr);
    _processing = false;
}

} // namespace corona::mesh
