#include "workload/synthetic.hh"

#include <stdexcept>

#include "noc/message.hh"

namespace corona::workload {

std::string
to_string(Pattern pattern)
{
    switch (pattern) {
      case Pattern::Uniform: return "Uniform";
      case Pattern::HotSpot: return "Hot Spot";
      case Pattern::Tornado: return "Tornado";
      case Pattern::Transpose: return "Transpose";
    }
    return "Unknown";
}

SyntheticWorkload::SyntheticWorkload(Pattern pattern,
                                     const topology::Geometry &geom,
                                     const SyntheticParams &params)
    : _pattern(pattern), _geom(geom), _params(params),
      _sequence(geom.clusters() * params.threads_per_cluster, 0)
{
}

std::size_t
SyntheticWorkload::threads() const
{
    return _geom.clusters() * _params.threads_per_cluster;
}

topology::ClusterId
SyntheticWorkload::destinationOf(topology::ClusterId src,
                                 sim::Rng &rng) const
{
    const std::size_t k = _geom.radix();
    const auto c = _geom.coordOf(src);
    switch (_pattern) {
      case Pattern::Uniform:
        return static_cast<topology::ClusterId>(
            rng.below(_geom.clusters()));
      case Pattern::HotSpot:
        return _params.hot_cluster;
      case Pattern::Tornado: {
        const std::size_t shift = k / 2 - 1;
        return _geom.idAt({(c.x + shift) % k, (c.y + shift) % k});
      }
      case Pattern::Transpose:
        return _geom.idAt({c.y, c.x});
    }
    throw std::logic_error("SyntheticWorkload: unknown pattern");
}

MissRequest
SyntheticWorkload::next(std::size_t thread, sim::Tick, sim::Rng &rng)
{
    if (thread >= _sequence.size())
        throw std::out_of_range("SyntheticWorkload::next: bad thread");
    const auto src = static_cast<topology::ClusterId>(
        thread / _params.threads_per_cluster);

    MissRequest req;
    req.think_time =
        static_cast<sim::Tick>(rng.exponential(
            static_cast<double>(_params.mean_think)));
    req.home = destinationOf(src, rng);
    // Unique line per (thread, sequence) within the home's region so
    // MSHR coalescing never collapses synthetic traffic.
    const std::uint64_t seq = _sequence[thread]++;
    req.line = ((req.home * (1ull << 32)) +
                thread * (1ull << 20) + seq) *
               noc::cacheLineBytes;
    req.write = rng.chance(_params.write_fraction);
    return req;
}

double
SyntheticWorkload::offeredBytesPerSecond() const
{
    const double per_thread =
        static_cast<double>(noc::cacheLineBytes) /
        sim::ticksToSeconds(_params.mean_think);
    return per_thread * static_cast<double>(threads());
}

} // namespace corona::workload
