/**
 * @file
 * Synthetic traffic patterns (Table 3).
 *
 * Four patterns stress the interconnects directly:
 *  - Uniform: each miss targets a uniformly random home cluster;
 *  - Hot Spot: every cluster targets one fixed home cluster;
 *  - Tornado: cluster (i, j) targets ((i + k/2 - 1) % k, (j + k/2 - 1)
 *    % k) on the k x k grid — the classic worst case for a mesh's
 *    bisection;
 *  - Transpose: cluster (i, j) targets (j, i).
 * Each pattern runs 1 M network requests in the paper; think times are
 * small so the network, not the cores, is the bottleneck.
 */

#ifndef CORONA_WORKLOAD_SYNTHETIC_HH
#define CORONA_WORKLOAD_SYNTHETIC_HH

#include <vector>

#include "topology/geometry.hh"
#include "workload/workload.hh"

namespace corona::workload {

/** Synthetic pattern selector. */
enum class Pattern
{
    Uniform,
    HotSpot,
    Tornado,
    Transpose,
};

/** Name of a pattern as printed in tables. */
std::string to_string(Pattern pattern);

/** Parameters common to the synthetic models. */
struct SyntheticParams
{
    /** Mean exponential think time between a fill and the next miss,
     * ticks (10 ns: network-saturating at 1024 threads). */
    sim::Tick mean_think = 10000;
    /** Fraction of write misses. */
    double write_fraction = 0.3;
    /** Threads per cluster (4 cores x 4 threads). */
    std::size_t threads_per_cluster = 16;
    /** Hot Spot target cluster. */
    topology::ClusterId hot_cluster = 0;
};

/**
 * Synthetic traffic workload over the cluster grid.
 */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(Pattern pattern, const topology::Geometry &geom,
                      const SyntheticParams &params = {});

    std::string name() const override { return to_string(_pattern); }
    MissRequest next(std::size_t thread, sim::Tick now,
                     sim::Rng &rng) override;
    std::uint64_t paperRequests() const override { return 1'000'000; }
    double offeredBytesPerSecond() const override;
    std::size_t threads() const override;

    /** Per-thread sequence counters plus the caller's RNG: safe to
     * drive from per-cluster lanes when the mapping matches. */
    bool
    partitionable(std::size_t clusters,
                  std::size_t threads_per_cluster) const override
    {
        return clusters == _geom.clusters() &&
               threads_per_cluster == _params.threads_per_cluster;
    }

    void
    reset() override
    {
        _sequence.assign(_sequence.size(), 0);
    }

    /** Destination cluster the pattern assigns to traffic from @p src. */
    topology::ClusterId destinationOf(topology::ClusterId src,
                                      sim::Rng &rng) const;

  private:
    Pattern _pattern;
    topology::Geometry _geom;
    SyntheticParams _params;
    /** Per-thread sequence numbers keep line addresses distinct. */
    std::vector<std::uint64_t> _sequence;
};

} // namespace corona::workload

#endif // CORONA_WORKLOAD_SYNTHETIC_HH
