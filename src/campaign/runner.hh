/**
 * @file
 * Multi-threaded campaign execution.
 *
 * CampaignRunner expands a CampaignSpec and executes the resulting runs
 * on a std::thread worker pool. Each worker leases every run's
 * simulation context and workload instance, reset to their pristine
 * state, from its own core::SystemPool and WorkloadCache, so runs
 * never share mutable state; per-run seeds come from the plan
 * (derived from the campaign seed and grid index), so results are
 * bit-identical for any worker count and any completion order. Sinks
 * observe records in run-index order; the progress reporter observes
 * them in completion order.
 */

#ifndef CORONA_CAMPAIGN_RUNNER_HH
#define CORONA_CAMPAIGN_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/progress.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "obs/observe.hh"
#include "sim/logging.hh"

namespace corona::campaign {

/**
 * A per-worker cache of workload instances keyed by workload index.
 * Workload models are deterministic state machines; leasing resets the
 * cached instance to its pristine state, so a revisited workload axis
 * entry costs no construction (the last per-cell steady-state
 * allocation). Not thread-safe — each campaign worker owns one.
 */
class WorkloadCache
{
  public:
    /** A pristine workload for @p plan: cached-and-reset, or built. */
    workload::Workload &
    lease(const RunPlan &plan)
    {
        if (plan.workload_index >= _slots.size())
            _slots.resize(plan.workload_index + 1);
        auto &slot = _slots[plan.workload_index];
        if (slot) {
            slot->reset();
            ++_reuses;
        } else {
            slot = plan.make_workload();
            if (!slot)
                sim::fatal("campaign: workload factory for \"" +
                           plan.workload + "\" returned null");
        }
        return *slot;
    }

    /** Leases served by an existing instance (reset, not rebuilt). */
    std::uint64_t reuses() const { return _reuses; }

  private:
    std::vector<std::unique_ptr<workload::Workload>> _slots;
    std::uint64_t _reuses = 0;
};

/** Runner knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 means hardware concurrency (at least 1). The
     * pool is capped at the campaign's run count. */
    std::size_t threads = 0;
    /** Optional progress/ETA reporter (not owned). */
    ProgressReporter *progress = nullptr;
    /** Per-run observability: registry time-series sampling, event
     * tracing, end-of-run snapshots (all off by default). Sink and
     * checkpoint bytes are unaffected — observability writes its own
     * files. */
    obs::CampaignObsOptions observability{};
};

/**
 * Executes campaigns over a worker pool and feeds attached sinks.
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(RunnerOptions options = {});

    /** Attach a sink (not owned; must outlive run()). */
    void addSink(ResultSink &sink);

    /**
     * Expand and execute @p spec to completion.
     *
     * A run that throws is captured as a failed RunRecord (ok = false,
     * zeroed metrics) without aborting the campaign. An exception from
     * a sink or the progress reporter, by contrast, stops dispatch and
     * propagates to the caller once the pool has drained. @return all
     * records in run-index order.
     */
    std::vector<RunRecord> run(const CampaignSpec &spec);

    /**
     * Resume @p spec from previously completed records (typically
     * loadCheckpoint output). Successful records are replayed to the
     * sinks verbatim instead of re-executing; failed or missing runs
     * execute as usual. Sinks see the same records in the same order
     * as an uninterrupted run, so their output bytes are identical.
     * Fatal on a record whose run index lies outside the grid.
     * @return all records (replayed + executed) in run-index order.
     */
    std::vector<RunRecord> run(const CampaignSpec &spec,
                               std::vector<RunRecord> completed);

    /** The worker count run() will use for @p total_runs runs. */
    std::size_t effectiveThreads(std::size_t total_runs) const;

  private:
    RunnerOptions _options;
    std::vector<ResultSink *> _sinks;
};

/** Resolve a requested worker count: 0 defers to $CORONA_JOBS when
 * set (strictly parsed, fatal on garbage), else hardware concurrency;
 * never less than 1. The runner sizes its pool with it, so
 * CORONA_JOBS bounds every campaign. */
std::size_t resolveWorkerThreads(std::size_t requested);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_RUNNER_HH
