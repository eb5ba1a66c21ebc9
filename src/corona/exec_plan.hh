/**
 * @file
 * Sharded-execution planning (ROADMAP item 2).
 *
 * Decides whether a run may use the conservative parallel executor
 * and, when it may, how the model partitions: one entity per cluster
 * (hub + memory controller + driver lane + — for the crossbar — the
 * MWSR channel homed there), plus one fabric entity for networks with
 * centralized internal wiring (mesh, ideal). The lookahead is the
 * physical minimum latency of any cross-entity interaction, which
 * bounds the executor's lockstep window.
 *
 * Executor-mode runs apply the lookahead as an explicit staging
 * latency on hub-to-network injection (and fabric-to-hub delivery for
 * mesh/ideal). That timing discipline differs numerically from the
 * classic single-queue engine by design — what it guarantees is that
 * results are a pure function of the model, bit-identical at every
 * shard count, which parallel_smoke.sh and parallel_test enforce.
 */

#ifndef CORONA_CORONA_EXEC_PLAN_HH
#define CORONA_CORONA_EXEC_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "corona/config.hh"
#include "sim/types.hh"

namespace corona::workload {
class Workload;
} // namespace corona::workload

namespace corona::core {

/**
 * Physical lookahead of @p config, ticks: the minimum latency any
 * cross-entity interaction can carry. Crossbar and ideal configs are
 * bounded by one 5 GHz clock (optical serialization starts a clock
 * edge after injection); mesh configs by one router hop. May be 0
 * (e.g. a zero-hop-latency mesh): such configs cannot run sharded.
 */
sim::Tick lookaheadTicks(const SystemConfig &config);

/** Entities the executor partitions: clusters, plus one fabric
 * entity for networks whose internals stay on a single queue. */
std::size_t executorEntities(const SystemConfig &config);

/** Entity id of the fabric entity (meaningful for mesh/ideal only). */
std::size_t fabricEntity(const SystemConfig &config);

/**
 * Contiguous entity-to-shard map for @p shards shards: cluster c on
 * shard c * shards / clusters, the fabric entity (when present) on
 * shard 0. @p shards must be in [1, clusters].
 */
std::vector<std::uint32_t> entityShardMap(const SystemConfig &config,
                                          std::size_t shards);

/**
 * The shard count a run actually gets. @p requested comes from the
 * sim_threads knob (0 = the classic single-queue engine). Returns 0 —
 * classic serial — whenever the model cannot be partitioned safely:
 *
 *   - the coherent front end (directory state spans clusters);
 *   - a workload that is not partitionable under this config's
 *     thread-to-cluster mapping;
 *   - warm-up sampling (the warm-up boundary is a global-order cut);
 *   - event tracing (the shared ring's eviction order is not
 *     shard-count-invariant);
 *   - a lookahead of <= 1 tick (windows would degenerate).
 *
 * Otherwise returns requested clamped to the cluster count.
 */
unsigned effectiveSimThreads(unsigned requested,
                             const SystemConfig &config,
                             const workload::Workload &workload,
                             std::uint64_t warmup_requests, bool tracing);

} // namespace corona::core

#endif // CORONA_CORONA_EXEC_PLAN_HH
