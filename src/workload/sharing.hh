/**
 * @file
 * Sharing-pattern reference generators.
 *
 * The synthetic and SPLASH models emit unique line addresses — fine for
 * stressing the interconnect, but structurally incapable of exercising
 * coherence (no two clusters ever touch the same line). These three
 * generators emit classic sharing patterns over a small pool of shared
 * lines, sized so the coherent front end's directory, invalidation
 * transport, and broadcast threshold all see real traffic:
 *
 *  - Migratory: each thread works on one pool line for phase_length
 *    accesses (alternating read/write, a lock-protected record), then
 *    migrates to the next — ownership chases the phase around the
 *    clusters.
 *  - Producer-Consumer: even clusters write the pool, odd clusters
 *    read it — every production invalidates the consumers' copies.
 *  - False Sharing: every thread stores to a tiny pool of hot lines —
 *    the invalidation worst case the broadcast bus was built for.
 *
 * Pool line i lives at address i * line_bytes with home cluster
 * i % clusters (a pure function of the address, as the directory
 * requires).
 */

#ifndef CORONA_WORKLOAD_SHARING_HH
#define CORONA_WORKLOAD_SHARING_HH

#include <vector>

#include "topology/geometry.hh"
#include "workload/workload.hh"

namespace corona::workload {

/** Sharing pattern selector. */
enum class SharingPattern
{
    Migratory,
    ProducerConsumer,
    FalseSharing,
};

/** Name of a sharing pattern as printed in tables. */
std::string to_string(SharingPattern pattern);

/** Parameters common to the sharing models. */
struct SharingParams
{
    /** Mean exponential think time between references, ticks. */
    sim::Tick mean_think = 10000;
    /** Threads per cluster (4 cores x 4 threads). */
    std::size_t threads_per_cluster = 16;
    /** Shared pool size, lines. */
    std::size_t lines = 64;
    /** References a thread makes before migrating to the next line
     * (Migratory only). */
    std::size_t phase_length = 64;
    /** Fraction of writes (Producer-Consumer writers / False
     * Sharing). */
    double write_fraction = 0.5;
};

/**
 * Shared-pool reference workload over the cluster grid.
 */
class SharingWorkload : public Workload
{
  public:
    SharingWorkload(SharingPattern pattern,
                    const topology::Geometry &geom,
                    const SharingParams &params = {});

    std::string name() const override { return to_string(_pattern); }
    /** The record is the reference: in miss-stream mode the pool is
     * replayed as (heavily coalescing) misses, in coherent mode it
     * drives real sharing. */
    MissRequest next(std::size_t thread, sim::Tick now,
                     sim::Rng &rng) override;
    std::uint64_t paperRequests() const override { return 1'000'000; }
    double offeredBytesPerSecond() const override;
    std::size_t threads() const override;

    void
    reset() override
    {
        _sequence.assign(_sequence.size(), 0);
    }

    const SharingParams &params() const { return _params; }

    /** Pool line index thread @p thread touches at @p seq. */
    std::size_t lineIndexAt(std::size_t thread, std::uint64_t seq) const;

  private:
    SharingPattern _pattern;
    topology::Geometry _geom;
    SharingParams _params;
    /** Per-thread sequence numbers drive the phase structure. */
    std::vector<std::uint64_t> _sequence;
};

} // namespace corona::workload

#endif // CORONA_WORKLOAD_SHARING_HH
