#include "mesh/electrical_mesh.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/logging.hh"

namespace corona::mesh {

MeshParams
hmeshParams()
{
    MeshParams p;
    p.bisection_bytes_per_second = 1.28e12;
    return p;
}

MeshParams
lmeshParams()
{
    MeshParams p;
    p.bisection_bytes_per_second = 0.64e12;
    return p;
}

ElectricalMesh::ElectricalMesh(sim::EventQueue &eq,
                               const sim::ClockDomain &clock,
                               const topology::Geometry &geom,
                               const MeshParams &params,
                               std::string display_name)
    : _eq(eq), _geom(geom), _name(std::move(display_name))
{
    // Checked before anything is built: a route table per router holds
    // one entry per cluster.
    if (geom.clusters() - 1 >
        std::numeric_limits<decltype(Flit::dst)>::max())
        throw std::invalid_argument(
            "ElectricalMesh: more clusters than a flit can name");
    // The bisection of a radix-r mesh cuts r channels per direction;
    // derate the raw per-link rate by the wormhole flow-control
    // efficiency (see header). HMesh: 1.28 TB/s / 8 x 0.8 = 128 GB/s.
    _bisection = params.bisection_bytes_per_second;
    _linkBandwidth = params.bisection_bytes_per_second /
                     static_cast<double>(geom.bisectionLinks()) *
                     params.link_efficiency;
    const HopTiming timing = hopTiming(
        _linkBandwidth, params.hop_latency_clocks * clock.period());

    _routers.reserve(geom.clusters());
    for (topology::ClusterId id = 0; id < geom.clusters(); ++id) {
        auto router = std::make_unique<Router>(eq, geom, id, timing,
                                               params.router);
        router->setEject([this, id](Flit flit) { eject(id, flit); });
        _routers.push_back(std::move(router));
    }

    // Wire neighbouring routers together.
    for (topology::ClusterId id = 0; id < geom.clusters(); ++id) {
        for (std::size_t d = 0; d < 4; ++d) {
            const auto dir = static_cast<Direction>(d);
            if (hasNeighbour(geom, id, dir))
                _routers[id]->connect(dir,
                                      *_routers[neighbour(geom, id, dir)]);
        }
    }
}

void
ElectricalMesh::reset()
{
    Interconnect::reset();
    for (auto &router : _routers)
        router->reset();
    _bodies.clear();
    _freeSlots.clear();
}

void
ElectricalMesh::send(const noc::Message &msg)
{
    if (msg.src >= _routers.size() || msg.dst >= _routers.size())
        sim::panic("ElectricalMesh::send: bad endpoint");
    _routers[msg.src]->inject(
        Flit{park(msg), static_cast<std::uint16_t>(msg.dst), msg.kind});
}

std::uint32_t
ElectricalMesh::park(const noc::Message &msg)
{
    noc::Message stamped = msg;
    stamped.injected = _eq.now();
    if (_freeSlots.empty()) {
        if (_bodies.size() > std::numeric_limits<std::uint32_t>::max())
            sim::panic("ElectricalMesh: more messages in flight than a "
                       "flit's slot can name");
        _bodies.push_back(stamped);
        return static_cast<std::uint32_t>(_bodies.size() - 1);
    }
    const std::uint32_t slot = _freeSlots.back();
    _freeSlots.pop_back();
    _bodies[slot] = stamped;
    return slot;
}

void
ElectricalMesh::eject(topology::ClusterId at, Flit flit)
{
    if (flit.dst != at)
        sim::panic("ElectricalMesh: misrouted message");
    // Copied out first: delivery may send, and a send may reuse the
    // slot or grow the pool.
    const noc::Message msg = _bodies[flit.slot];
    _freeSlots.push_back(flit.slot);
    delivered(msg, _eq.now(),
              std::max<std::size_t>(
                  1, _geom.manhattanDistance(msg.src, msg.dst)));
}

std::size_t
ElectricalMesh::hopCount(topology::ClusterId src,
                         topology::ClusterId dst) const
{
    return std::max<std::size_t>(1, _geom.manhattanDistance(src, dst));
}

double
ElectricalMesh::bisectionBandwidth() const
{
    return _bisection;
}

} // namespace corona::mesh
