#include "workload/sharing.hh"

#include <stdexcept>

#include "noc/message.hh"

namespace corona::workload {

std::string
to_string(SharingPattern pattern)
{
    switch (pattern) {
      case SharingPattern::Migratory: return "Migratory";
      case SharingPattern::ProducerConsumer: return "Producer-Consumer";
      case SharingPattern::FalseSharing: return "False Sharing";
    }
    return "Unknown";
}

SharingWorkload::SharingWorkload(SharingPattern pattern,
                                 const topology::Geometry &geom,
                                 const SharingParams &params)
    : _pattern(pattern), _geom(geom), _params(params),
      _sequence(geom.clusters() * params.threads_per_cluster, 0)
{
    if (params.lines == 0 || params.phase_length == 0)
        throw std::invalid_argument(
            "SharingWorkload: lines and phase_length must be positive");
}

std::size_t
SharingWorkload::threads() const
{
    return _geom.clusters() * _params.threads_per_cluster;
}

std::size_t
SharingWorkload::lineIndexAt(std::size_t thread, std::uint64_t seq) const
{
    const std::size_t cluster = thread / _params.threads_per_cluster;
    switch (_pattern) {
      case SharingPattern::Migratory:
        // A thread works one line for phase_length accesses, then
        // moves on; the cluster offset staggers ownership so every
        // line is always live somewhere.
        return (seq / _params.phase_length + cluster) % _params.lines;
      case SharingPattern::ProducerConsumer:
      case SharingPattern::FalseSharing:
        // Everyone sweeps the pool in lockstep: maximal contention.
        return seq % _params.lines;
    }
    throw std::logic_error("SharingWorkload: unknown pattern");
}

MissRequest
SharingWorkload::next(std::size_t thread, sim::Tick, sim::Rng &rng)
{
    if (thread >= _sequence.size())
        throw std::out_of_range("SharingWorkload::next: bad thread");
    const std::size_t cluster = thread / _params.threads_per_cluster;
    const std::uint64_t seq = _sequence[thread]++;
    const std::size_t li = lineIndexAt(thread, seq);

    MissRequest req;
    req.think_time = static_cast<sim::Tick>(
        rng.exponential(static_cast<double>(_params.mean_think)));
    req.line = static_cast<topology::Addr>(li) * noc::cacheLineBytes;
    req.home =
        static_cast<topology::ClusterId>(li % _geom.clusters());
    switch (_pattern) {
      case SharingPattern::Migratory:
        // Read-modify-write: acquire the record, then update it.
        req.write = seq % 2 == 1;
        break;
      case SharingPattern::ProducerConsumer:
        // Even clusters produce, odd clusters consume.
        req.write = cluster % 2 == 0;
        break;
      case SharingPattern::FalseSharing:
        req.write = rng.chance(_params.write_fraction);
        break;
    }
    return req;
}

double
SharingWorkload::offeredBytesPerSecond() const
{
    const double per_thread =
        static_cast<double>(noc::cacheLineBytes) /
        sim::ticksToSeconds(_params.mean_think);
    return per_thread * static_cast<double>(threads());
}

} // namespace corona::workload
