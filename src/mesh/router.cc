#include "mesh/router.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::mesh {

Router::Router(sim::EventQueue &eq, const topology::Geometry &geom,
               topology::ClusterId id, double link_bytes_per_second,
               sim::Tick hop_latency, const RouterParams &params)
    : _id(id)
{
    _routes.reserve(geom.clusters());
    for (topology::ClusterId dst = 0; dst < geom.clusters(); ++dst)
        _routes.push_back(route(geom, id, dst));
    for (auto &buffer : _inputs)
        buffer = std::make_unique<noc::CreditBuffer>(
            params.input_buffer_depth);
    for (std::size_t d = 0; d < 4; ++d) {
        const auto dir = static_cast<Direction>(d);
        if (!hasNeighbour(geom, id, dir))
            continue;
        _links[d] = std::make_unique<noc::BandwidthLink>(
            eq, link_bytes_per_second, hop_latency,
            params.link_queue_depth);
        _links[d]->onSpace([this] { process(); });
    }
}

void
Router::connect(Direction d, Router &next_router)
{
    const auto idx = static_cast<std::size_t>(d);
    if (!_links[idx])
        sim::panic("Router::connect: no link in that direction");
    Router *next = &next_router;
    const auto arrival = static_cast<std::size_t>(opposite(d));
    _links[idx]->setDownstream(next->_inputs[arrival].get());
    _links[idx]->setSink([next, arrival](const noc::Message &msg) {
        next->_inputs[arrival]->push(msg, /*reserved=*/true);
        next->_nonEmpty |= 1u << arrival;
        next->process();
    });
}

void
Router::inject(const noc::Message &msg)
{
    _injection.push_back(msg);
    _nonEmpty |= 1u << injectionStage;
    process();
}

const noc::CreditBuffer &
Router::inputBuffer(Direction d) const
{
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= 4)
        sim::panic("Router::inputBuffer: Local has no input buffer");
    return *_inputs[idx];
}

const noc::BandwidthLink *
Router::link(Direction d) const
{
    return _links[static_cast<std::size_t>(d)].get();
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
    // drain callbacks it fires have run.
    noc::CreditBuffer &buffer = *_inputs[stage];
    buffer.pop();
    if (buffer.empty())
        _nonEmpty &= ~(1u << stage);
}

bool
Router::tryForward(std::size_t stage)
{
    const noc::Message &msg = stage == injectionStage
                                  ? _injection.front()
                                  : _inputs[stage]->front();
    const Direction out = _routes[msg.dst];
    if (out == Direction::Local) {
        const noc::Message delivered = msg;
        popStage(stage);
        if (!_eject)
            sim::panic("Router: no ejection callback");
        _eject(delivered);
        return true;
    }
    auto &link = _links[static_cast<std::size_t>(out)];
    if (!link)
        sim::panic("Router: dimension-order route off the mesh edge");
    if (!link->trySend(msg))
        return false; // Output queue full; onSpace will retry.
    popStage(stage);
    return true;
}

void
Router::process()
{
    // Callbacks fired from within the loop (link onSpace, eject, pushes
    // into neighbours that loop back) re-enter process(); flatten the
    // recursion into another pass of the loop.
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
