/**
 * @file
 * Worker-pool primitive for component-level sweeps.
 *
 * Scenario runs execute whole NetworkSimulations through
 * CampaignRunner; the component ablations (token arbitration, the
 * broadcast bus, ring-variation Monte-Carlo) sweep much smaller units
 * that never touch a NetworkSimulation. parallelFor gives them the
 * same worker pool: body(i) runs once per index on resolveWorkerThreads
 * workers, each index on exactly one thread. Bodies must keep their
 * mutable state per-index (exactly like campaign runs); callers
 * preserve output order by writing results into index i's slot and
 * printing after the pool drains.
 */

#ifndef CORONA_CAMPAIGN_PARALLEL_FOR_HH
#define CORONA_CAMPAIGN_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace corona::campaign {

/**
 * Run body(0) … body(n-1) on a pool of @p threads workers (0 means
 * hardware concurrency; the pool never exceeds @p n). Blocks until
 * every body returns. The first exception a body throws is rethrown on
 * the caller's thread after the pool drains; remaining indices are
 * abandoned.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &body);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_PARALLEL_FOR_HH
