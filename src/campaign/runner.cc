#include "campaign/runner.hh"

#include "campaign/obs_rollup.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "corona/env.hh"
#include "corona/exec_plan.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"

namespace corona::campaign {

namespace {

/**
 * Simulate @p plan: the shared body of the fresh-system and pooled
 * execution paths. @p workloads and @p obs are optional extras used
 * by the runner's worker loop: workload pooling and per-run
 * observability.
 */
RunRecord
simulatePlan(const RunPlan &plan, core::SystemPool *pool,
             WorkloadCache *workloads, const obs::RunObservability *obs)
{
    RunRecord record = recordFor(plan);
    std::unique_ptr<workload::Workload> owned;
    workload::Workload *workload = nullptr;
    if (workloads) {
        workload = &workloads->lease(plan);
    } else {
        owned = plan.make_workload();
        if (!owned)
            sim::fatal("campaign: workload factory for \"" +
                       plan.workload + "\" returned null");
        workload = owned.get();
    }
    // The pooled lease must match what the run will effectively use:
    // serial and sharded contexts are distinct pool entries.
    const unsigned sim_threads = core::effectiveSimThreads(
        plan.params.sim_threads, plan.system, *workload,
        plan.params.warmup_requests,
        obs && obs->enabled() && obs->trace_capacity > 0);
    core::SimContext *ctx =
        pool ? &pool->lease(plan.system, sim_threads) : nullptr;
    if (obs && obs->enabled()) {
        record.metrics =
            ctx ? core::runExperiment(*ctx, *workload, plan.params, *obs)
                : core::runExperiment(plan.system, *workload,
                                      plan.params, *obs);
    } else {
        record.metrics =
            ctx ? core::runExperiment(*ctx, *workload, plan.params)
                : core::runExperiment(plan.system, *workload,
                                      plan.params);
    }
    return record;
}

/**
 * Simulate @p plan, timing it. A run that throws becomes a failed
 * record with the plan's identity fields and zeroed metrics.
 */
RunRecord
executePlanWith(const RunPlan &plan, core::SystemPool *pool,
                WorkloadCache *workloads, const obs::RunObservability *obs)
{
    const auto start = std::chrono::steady_clock::now();
    RunRecord record;
    try {
        record = simulatePlan(plan, pool, workloads, obs);
    } catch (const std::exception &e) {
        record = recordFor(plan);
        record.ok = false;
        record.error = e.what();
        record.metrics.workload = plan.workload;
        record.metrics.config = plan.config;
    }
    record.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return record;
}

} // namespace

RunRecord
executePlan(const RunPlan &plan)
{
    return executePlanWith(plan, nullptr, nullptr, nullptr);
}

RunRecord
executePlan(const RunPlan &plan, core::SystemPool &pool)
{
    return executePlanWith(plan, &pool, nullptr, nullptr);
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : _options(options)
{
}

void
CampaignRunner::addSink(ResultSink &sink)
{
    _sinks.push_back(&sink);
}

std::size_t
resolveWorkerThreads(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const auto jobs = core::env::positiveCount("CORONA_JOBS"))
        return static_cast<std::size_t>(*jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::size_t
CampaignRunner::effectiveThreads(std::size_t total_runs) const
{
    return std::min(resolveWorkerThreads(_options.threads), total_runs);
}

std::vector<RunRecord>
CampaignRunner::run(const CampaignSpec &spec)
{
    return run(spec, {});
}

std::vector<RunRecord>
CampaignRunner::run(const CampaignSpec &spec,
                    std::vector<RunRecord> completed)
{
    std::vector<RunPlan> plans = expand(spec);
    const std::size_t total = plans.size();

    // Replayed records fill their run's slot up front; only successful
    // runs count as done (a failed run re-executes on resume).
    std::vector<std::optional<RunRecord>> slots(total);
    for (RunRecord &record : completed) {
        if (record.index >= total)
            sim::fatal("CampaignRunner: replayed run " +
                       std::to_string(record.index) +
                       " is outside the campaign's " +
                       std::to_string(total) + " runs");
        if (record.ok)
            slots[record.index] = std::move(record);
    }

    // Runs still needing execution, in ascending run index.
    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t p = 0; p < total; ++p) {
        if (!slots[p])
            pending.push_back(p);
    }
    const std::size_t threads = effectiveThreads(pending.size());

    for (ResultSink *sink : _sinks)
        sink->begin(spec, total);
    if (_options.progress)
        _options.progress->begin(spec, total, total - pending.size(),
                                 threads);

    // Workers pull the next un-run plan; completed records land in
    // their index slot, and every consecutive ready record is flushed
    // to the sinks so serialisation order never depends on threading.
    std::atomic<std::size_t> next_plan{0};
    std::mutex emit_mutex;
    std::size_t next_emit = 0;
    // First exception a sink or the progress reporter throws: stop
    // dispatching and rethrow on the caller's thread after the join —
    // escaping a std::thread body would call std::terminate.
    std::exception_ptr emit_error;

    // Flush every consecutive ready slot to the sinks. Caller holds
    // emit_mutex (or is still single-threaded).
    const auto flushReady = [&] {
        while (next_emit < total && slots[next_emit]) {
            for (ResultSink *sink : _sinks)
                sink->consume(*slots[next_emit]);
            ++next_emit;
        }
    };

    // Replayed records at the head of the grid (and a fully resumed
    // campaign's entire record list) flush before any worker starts.
    flushReady();

    const bool observe = _options.observability.enabled();
    // The campaign rollup: every executed cell's end-of-run registry
    // capture, grouped by config. Workers append under a mutex; the
    // file write at the end sorts, so the bytes are thread-count
    // independent.
    const bool rollup_on = observe && _options.observability.rollup;
    ObsRollup rollup;
    std::mutex rollup_mutex;

    const auto worker = [&] {
        // Each worker thread owns its pool: contexts are leased and
        // reset between this worker's cells, never shared across
        // threads. Per-run seeds come from the plan, so pooling cannot
        // perturb results regardless of which worker runs which cell.
        core::SystemPool pool;
        WorkloadCache workloads;
        const bool pooled = _options.reuse_systems;
        while (true) {
            const std::size_t at =
                next_plan.fetch_add(1, std::memory_order_relaxed);
            if (at >= pending.size())
                break;
            const std::size_t idx = pending[at];
            obs::RunObservability run_obs;
            obs::RollupCapture capture;
            if (observe) {
                run_obs =
                    _options.observability.forRun(plans[idx].index);
                if (rollup_on) {
                    // Only the first run of a config copies the ~2000
                    // probe paths out; later runs carry values alone.
                    // Two workers racing a config's first run both
                    // copy, harmlessly (addRun checks they agree).
                    std::scoped_lock lock(rollup_mutex);
                    capture.want_paths =
                        !rollup.hasGroup(plans[idx].config);
                    run_obs.capture = &capture;
                }
            }
            RunRecord record = executePlanWith(
                plans[idx], pooled ? &pool : nullptr,
                pooled ? &workloads : nullptr,
                observe ? &run_obs : nullptr);
            if (rollup_on && record.ok) {
                std::scoped_lock lock(rollup_mutex);
                rollup.addRun(plans[idx].config, plans[idx].index,
                              capture.end_tick, capture.paths,
                              std::move(capture.values));
            }

            std::scoped_lock lock(emit_mutex);
            slots[idx] = std::move(record);
            if (emit_error)
                continue;
            try {
                if (_options.progress)
                    _options.progress->completed(*slots[idx]);
                flushReady();
            } catch (...) {
                emit_error = std::current_exception();
                next_plan.store(pending.size(),
                                std::memory_order_relaxed);
            }
        }
    };

    if (threads <= 1) {
        if (!pending.empty())
            worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &thread : pool)
            thread.join();
    }

    if (emit_error)
        std::rethrow_exception(emit_error);

    for (ResultSink *sink : _sinks)
        sink->end();
    if (_options.progress)
        _options.progress->end();

    if (rollup_on)
        writeRollupFile(_options.observability.dir + "/rollup.csv",
                        rollup);

    std::vector<RunRecord> records;
    records.reserve(total);
    for (std::optional<RunRecord> &slot : slots) {
        if (!slot)
            sim::panic("CampaignRunner: drained pool left a hole in "
                       "the result list");
        records.push_back(std::move(*slot));
    }
    return records;
}

} // namespace corona::campaign
