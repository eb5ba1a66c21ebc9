#include "corona/multi_stack.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::core {

MultiStackSystem::MultiStackSystem(sim::EventQueue &eq,
                                   const MultiStackParams &params)
    : _eq(eq), _params(params)
{
    if (params.stacks < 1)
        throw std::invalid_argument("MultiStackSystem: need >= 1 stack");
    _stacks.reserve(params.stacks);
    for (std::size_t s = 0; s < params.stacks; ++s)
        _stacks.push_back(
            std::make_unique<CoronaSystem>(eq, params.stack_config));

    _fibers.resize(params.stacks);
    for (std::size_t a = 0; a < params.stacks; ++a) {
        _fibers[a].resize(params.stacks);
        for (std::size_t b = 0; b < params.stacks; ++b) {
            if (a == b)
                continue;
            auto port = std::make_unique<FiberPort>(
                eq, params.fiber_bytes_per_second, params.fiber_latency,
                params.ni_queue_depth);
            // Arrivals dispatch to the continuation registered under
            // the message tag.
            port->link.setSink([this](const noc::Message &msg) {
                const auto it = _arrivals.find(msg.tag);
                if (it == _arrivals.end())
                    sim::panic("MultiStackSystem: unknown fiber tag");
                auto continuation = std::move(it->second);
                _arrivals.erase(it);
                continuation();
            });
            // Back-pressure: drain the port's send queue as the link
            // frees injection slots.
            FiberPort *raw = port.get();
            port->link.onSpace([raw] { raw->drain(); });
            _fibers[a][b] = std::move(port);
        }
    }
}

MultiStackSystem::FiberPort::FiberPort(sim::EventQueue &eq, double rate,
                                       sim::Tick latency,
                                       std::size_t depth)
    : link(eq, rate, latency, depth)
{
}

void
MultiStackSystem::FiberPort::send(const noc::Message &msg)
{
    sendq.push_back(msg);
    drain();
}

void
MultiStackSystem::FiberPort::drain()
{
    // trySend can fire the link's onSpace callback synchronously,
    // which re-enters drain(); flatten that recursion into the loop.
    if (draining) {
        redrain = true;
        return;
    }
    draining = true;
    do {
        redrain = false;
        while (!sendq.empty() && link.trySend(sendq.front()))
            sendq.pop_front();
    } while (redrain);
    draining = false;
}

MultiStackSystem::FiberPort &
MultiStackSystem::fiber(std::size_t from, std::size_t to)
{
    auto &port = _fibers.at(from).at(to);
    if (!port)
        sim::panic("MultiStackSystem: no fiber on the diagonal");
    return *port;
}

void
MultiStackSystem::issueLocal(std::size_t stack,
                             topology::ClusterId cluster,
                             topology::Addr line,
                             topology::ClusterId home, bool write,
                             std::function<void()> done)
{
    // The attempt refers to itself weakly: only this frame and a parked
    // MSHR retry own it, so it is freed once it stops retrying.
    auto attempt = std::make_shared<std::function<void()>>();
    *attempt = [this, stack, cluster, line, home, write,
                done = std::move(done),
                self = std::weak_ptr<std::function<void()>>(attempt)] {
        Hub &hub = _stacks[stack]->hub(cluster);
        const Hub::Issue outcome = hub.issueMiss(line, home, write, done);
        if (outcome == Hub::Issue::MshrFull)
            hub.stallOnMshr([retry = self.lock()] { (*retry)(); });
    };
    (*attempt)();
}

void
MultiStackSystem::access(std::size_t src_stack,
                         topology::ClusterId src_cluster,
                         std::size_t home_stack,
                         topology::ClusterId home_cluster,
                         topology::Addr line, bool write,
                         std::function<void()> fill)
{
    if (src_stack >= _stacks.size() || home_stack >= _stacks.size())
        throw std::out_of_range("MultiStackSystem::access: bad stack");

    if (src_stack == home_stack) {
        ++_localAccesses;
        issueLocal(src_stack, src_cluster, line, home_cluster, write,
                   std::move(fill));
        return;
    }

    ++_remoteAccesses;
    // One local serpentine traversal carries the request to the NI.
    const sim::Tick local_xbar = 8 * 200;

    noc::Message request;
    request.kind = write ? noc::MsgKind::WriteReq : noc::MsgKind::ReadReq;
    request.src = src_cluster;
    request.dst = home_cluster;
    request.tag = _nextTag++;

    // Continuation chain: request lands at the remote NI -> remote
    // memory access from the NI proxy hub -> response fiber -> final
    // local crossbar hop -> fill.
    _arrivals.emplace(request.tag, [this, src_stack, home_stack,
                                    home_cluster, line, write,
                                    fill = std::move(fill)]() mutable {
        issueLocal(home_stack, /*NI proxy cluster=*/0, line, home_cluster,
                   write,
                   [this, src_stack, home_stack,
                    fill = std::move(fill)]() mutable {
            noc::Message response;
            response.kind = noc::MsgKind::ReadResp;
            response.tag = _nextTag++;
            _arrivals.emplace(response.tag,
                              [this, fill = std::move(fill)] {
                _eq.scheduleIn(8 * 200, fill);
            });
            fiber(home_stack, src_stack).send(response);
        });
    });
    _eq.scheduleIn(local_xbar, [this, src_stack, home_stack, request] {
        fiber(src_stack, home_stack).send(request);
    });
}

double
MultiStackSystem::fiberUtilization(std::size_t a, std::size_t b) const
{
    const auto &port = _fibers.at(a).at(b);
    if (!port)
        return 0.0;
    const sim::Tick now = _eq.now();
    return now ? static_cast<double>(port->link.busyTime()) /
                     static_cast<double>(now)
               : 0.0;
}

} // namespace corona::core
