/**
 * @file
 * Workload model interface.
 *
 * The paper's evaluation is trace-driven: COTSon produced 1024-thread L2
 * miss streams (annotated with thread id and timing) that the network
 * simulator replays. We reproduce the same contract with generative
 * models: a Workload hands each thread its next miss (think time since
 * the previous fill, target line address / home cluster, read or write).
 * Models are deterministic given the run seed.
 */

#ifndef CORONA_WORKLOAD_WORKLOAD_HH
#define CORONA_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "topology/address_map.hh"

namespace corona::workload {

/** One L2 miss, as the trace format records it. */
struct MissRequest
{
    /** Compute time separating this miss from the thread's previous
     * fill, ticks. */
    sim::Tick think_time = 0;
    /** Line address of the miss. */
    topology::Addr line = 0;
    /** Home cluster (memory controller) of the line. */
    topology::ClusterId home = 0;
    /** True for a write miss / writeback. */
    bool write = false;
};

/**
 * One memory reference, before any cache filtering. Same shape as a
 * miss (address, home, read/write, think time): the coherent front end
 * runs references through a per-cluster L1/L2 hierarchy, while the
 * miss-stream front end interprets the identical record as an L2 miss.
 * The home must be a pure function of the line address — the directory
 * banks a line under one home for the whole run.
 */
using ReferenceRequest = MissRequest;

/**
 * A generative 1024-thread miss-stream model.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as reported in tables. */
    virtual std::string name() const = 0;

    /**
     * Produce thread @p thread's next miss. @p now is the tick at which
     * the thread observed its previous fill (models use it to align
     * barrier-synchronized bursts).
     */
    virtual MissRequest next(std::size_t thread, sim::Tick now,
                             sim::Rng &rng) = 0;

    /**
     * Produce thread @p thread's next memory reference (pre-cache).
     * Models that only generate miss streams inherit this default,
     * which forwards to next() — drawing exactly the same RNG
     * sequence, so a coherent front end with a pass-through hierarchy
     * replays a miss-stream run bit for bit. Sharing-pattern models
     * override it to emit reusable (shared) line addresses.
     */
    virtual ReferenceRequest
    nextReference(std::size_t thread, sim::Tick now, sim::Rng &rng)
    {
        return next(thread, now, rng);
    }

    /** Table 3 network-request count for the full benchmark run. */
    virtual std::uint64_t paperRequests() const = 0;

    /**
     * Nominal offered load of the model at full concurrency, bytes per
     * second (used by calibration tests and reports).
     */
    virtual double offeredBytesPerSecond() const = 0;

    /** Threads the model drives (1024 for all paper workloads). */
    virtual std::size_t threads() const { return 1024; }

    /**
     * True when next()/nextReference() for a thread touch only state
     * confined to that thread's cluster (per-thread cursors, the
     * cluster's own caches) under the driver's thread-to-cluster
     * mapping: thread / @p threads_per_cluster. The sharded executor
     * drives each cluster's threads from its own lane concurrently,
     * so only partitionable workloads may run parallel; everything
     * else falls back to the serial engine. Conservative default:
     * models must opt in after auditing their state.
     */
    virtual bool
    partitionable(std::size_t clusters,
                  std::size_t threads_per_cluster) const
    {
        (void)clusters;
        (void)threads_per_cluster;
        return false;
    }

    /**
     * Restore the pristine post-construction state (sequence
     * counters, per-thread cursors, cache contents). Models are
     * deterministic given the run seed, so a reset workload replays
     * exactly like a fresh one — the basis of the campaign runner's
     * per-cell workload pooling.
     */
    virtual void reset() = 0;
};

} // namespace corona::workload

#endif // CORONA_WORKLOAD_WORKLOAD_HH
