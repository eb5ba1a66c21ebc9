#include "mesh/electrical_mesh.hh"

#include <algorithm>

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
        router->setEject([this, id](const noc::Message &msg) {
            if (msg.dst != id)
                sim::panic("ElectricalMesh: misrouted message");
            const std::size_t hops =
                std::max<std::size_t>(1,
                    _geom.manhattanDistance(msg.src, msg.dst));
            delivered(msg, _eq.now(), hops);
        });
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
ElectricalMesh::send(const noc::Message &msg)
{
    if (msg.src >= _routers.size() || msg.dst >= _routers.size())
        sim::panic("ElectricalMesh::send: bad endpoint");
    noc::Message stamped = msg;
    stamped.injected = _eq.now();
    _routers[msg.src]->inject(stamped);
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
