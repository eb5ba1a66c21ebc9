#include "mesh/router.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::mesh {

namespace {

/** Stage index mapping: 0..3 = E,W,N,S input buffers, 4 = injection. */
constexpr std::size_t numStages = 5;

std::optional<Direction>
stageDirection(std::size_t stage)
{
    if (stage >= 4)
        return std::nullopt; // Injection stage.
    return static_cast<Direction>(stage);
}

} // namespace

Router::Router(sim::EventQueue &eq, const topology::Geometry &geom,
               topology::ClusterId id, double link_bytes_per_second,
               sim::Tick hop_latency, const RouterParams &params)
    : _eq(eq), _id(id), _params(params)
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
    noc::CreditBuffer &inbox = next_router.inputBuffer(opposite(d));
    _links[idx]->setDownstream(&inbox);
    Router *next = &next_router;
    const Direction arrival = opposite(d);
    _links[idx]->setSink([this, next, arrival](const noc::Message &msg) {
        next->inputBuffer(arrival).push(msg, _eq.now(), /*reserved=*/true);
        next->process();
    });
}

void
Router::inject(const noc::Message &msg)
{
    _injection.push_back(msg);
    process();
}

noc::CreditBuffer &
Router::inputBuffer(Direction d)
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

const noc::Message *
Router::peek(std::optional<Direction> from) const
{
    if (from) {
        const auto &buffer = *_inputs[static_cast<std::size_t>(*from)];
        return buffer.empty() ? nullptr : &buffer.front();
    }
    return _injection.empty() ? nullptr : &_injection.front();
}

noc::Message
Router::popInput(std::optional<Direction> from)
{
    if (from)
        return _inputs[static_cast<std::size_t>(*from)]->pop(_eq.now());
    noc::Message msg = _injection.front();
    _injection.pop_front();
    return msg;
}

bool
Router::tryForward(std::optional<Direction> from)
{
    const noc::Message *msg = peek(from);
    if (!msg)
        return false;
    const Direction out = _routes[msg->dst];
    if (out == Direction::Local) {
        const noc::Message delivered = popInput(from);
        if (!_eject)
            sim::panic("Router: no ejection callback");
        _eject(delivered);
        return true;
    }
    auto &link = _links[static_cast<std::size_t>(out)];
    if (!link)
        sim::panic("Router: dimension-order route off the mesh edge");
    if (!link->trySend(*msg))
        return false; // Output queue full; onSpace will retry.
    popInput(from);
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
    // the starting stage so no input starves.
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i < numStages; ++i) {
            const std::size_t stage = (_rr + i) % numStages;
            if (tryForward(stageDirection(stage)))
                progress = true;
        }
        _rr = (_rr + 1) % numStages;
    }
    // A re-entry flagged above asks for one more round of passes. The
    // last pass moved nothing, and a pass that moves nothing has no
    // side effects, so that round would be exactly one more empty pass:
    // only its round-robin step remains.
    if (_reprocess)
        _rr = (_rr + 1) % numStages;
    _processing = false;
}

} // namespace corona::mesh
