/**
 * @file
 * Per-run observability bundle.
 *
 * RunObservability is the resolved request for one run: which planes
 * are on (sample period, trace capacity, snapshot, rollup capture) and
 * where its two output files go — one container holding the sampled
 * and traced planes, and the snapshot CSV. RunObserver owns the
 * per-run machinery — the context's cached Registry, an optional
 * EventTracer attached to the components, an optional
 * TimeSeriesSampler on the event queue — and writes the requested
 * files after the run.
 *
 * Lifecycle against the pooled-context discipline:
 *
 *     core::SimContext &ctx = pool.lease(config);    // pristine
 *     core::NetworkSimulation sim(ctx, workload);    // pristine check
 *     obs::RunObserver observer(ctx, run_obs);
 *     observer.start();                              // t=0 sample
 *     RunMetrics m = sim.run();
 *     observer.finish();                             // write files
 *
 * The observer is constructed after the simulation (the pristine check
 * must not see sampler events) and detaches the tracer from the system
 * in its destructor, so a pooled system never keeps a dangling tracer
 * pointer across leases. Instrumentation is cached on the SimContext:
 * the first observed run of a leased context walks the system and
 * registers ~2000 probes, every later lease reuses them (a context's
 * config is fixed, so the probe set never changes; reset() zeroes the
 * counters the probes read, not the probes).
 */

#ifndef CORONA_OBS_OBSERVE_HH
#define CORONA_OBS_OBSERVE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/types.hh"

namespace corona::core {
class SimContext;
} // namespace corona::core

namespace corona::sim {
class ShardedExecutor;
} // namespace corona::sim

namespace corona::obs {

/**
 * 8-byte magic opening a per-run observability container file, the
 * one file a run writes for its time-series and trace planes. After
 * the magic: u64 section count, then per section u64 kind (1 = time
 * series, 2 = trace), u64 payload bytes, and the payload — the
 * plane's own encoding, its magic included, which the per-plane
 * parsers read as-is. One file instead of two because on the
 * filesystems campaigns write to, creating a file costs more than its
 * bytes do.
 */
extern const char obsContainerMagic[8];

/**
 * End-of-run registry capture for the campaign rollup plane: the
 * runner hands one of these to the run and collects the filled-in
 * values into its campaign::ObsRollup. Paths are copied only when the
 * collector asks (it already has them after the first run of a
 * config).
 */
struct RollupCapture
{
    bool want_paths = false;
    sim::Tick end_tick = 0;
    std::vector<std::string> paths;
    std::vector<double> values;
};

/** What to observe in one run, and where to put it. */
struct RunObservability
{
    /** Ticks between time-series samples; 0 disables the sampler. */
    sim::Tick sample_period = 0;
    /** Trace ring capacity in events; 0 disables tracing. */
    std::size_t trace_capacity = 0;
    /** Write an end-of-run registry snapshot CSV. */
    bool snapshot = false;

    /** Output paths; an empty path skips that file. The sampler and
     * tracer planes are written as sections of the obs_path container
     * (see obsContainerMagic; corona-stats exports CSV/JSON on
     * demand); the snapshot stays CSV. */
    std::string snapshot_path;
    std::string obs_path;

    /** When non-null, finish() fills this with the end-of-run registry
     * state for the campaign rollup. Not owned. */
    RollupCapture *capture = nullptr;

    bool
    enabled() const
    {
        return sample_period > 0 || trace_capacity > 0 || snapshot ||
               capture != nullptr;
    }
};

/** Campaign-wide observability settings: a scenario's
 * [observability] section. Every plane defaults off. */
struct CampaignObsOptions
{
    /** Ticks between time-series samples; 0 = no sampler. */
    sim::Tick sample_period = 0;
    /** Event-trace ring capacity in events; 0 = no tracer. */
    std::size_t trace_capacity = 0;
    /** Write an end-of-run registry snapshot CSV per run. */
    bool snapshot = false;
    /** Collect end-of-run registry values into a campaign rollup. */
    bool rollup = false;
    /** Directory receiving per-run files and the rollup (created by
     * the caller). */
    std::string dir = "obs";

    bool
    enabled() const
    {
        return sample_period > 0 || trace_capacity > 0 || snapshot ||
               rollup;
    }

    /**
     * The per-run request for global run index @p run_index:
     * dir/run<index>.obs.bin (the container, when the sampler or
     * tracer is on) and dir/run<index>.snapshot.csv (when snapshots
     * are on). The rollup capture is wired by the runner, not here.
     */
    RunObservability forRun(std::size_t run_index) const;
};

/**
 * Load the time-series plane from the per-run container at @p path.
 * Fatal, naming the path, when the file is not a container or the
 * section is absent.
 */
TimeSeriesData loadTimeSeriesFile(const std::string &path);

/** Trace-plane counterpart of loadTimeSeriesFile. */
TraceData loadTraceFile(const std::string &path);

/**
 * Owns one run's observability state (see file comment for the
 * lifecycle).
 */
class RunObserver
{
  public:
    /**
     * Bind to @p ctx's cached registry (instrumenting the system into
     * it on the context's first observed run) and, if tracing is
     * requested, attach a tracer to the system.
     */
    RunObserver(core::SimContext &ctx, const RunObservability &obs);

    /** Detaches the tracer from the system. */
    ~RunObserver();

    RunObserver(const RunObserver &) = delete;
    RunObserver &operator=(const RunObserver &) = delete;

    /**
     * Begin in-sim recording (t=0 time-series sample + periodic
     * rescheduling). Call after the simulation is constructed and
     * before run().
     */
    void start();

    /**
     * Write every configured output file (fatal on I/O failure) and
     * fill the rollup capture, if any.
     */
    void finish();

    const Registry &registry() const { return _registry; }
    const EventTracer *tracer() const { return _tracer; }
    const TimeSeriesSampler *sampler() const { return _sampler; }

  private:
    core::SimContext &_ctx;
    RunObservability _obs;
    Registry &_registry;
    /** Owned by the context's ObsScratch, reused across leases. */
    EventTracer *_tracer = nullptr;
    TimeSeriesSampler *_sampler = nullptr;
    /** The executor whose barrier tick hook drives the sampler on a
     * sharded context (null otherwise); cleared on finish. */
    sim::ShardedExecutor *_hookedExecutor = nullptr;
};

} // namespace corona::obs

#endif // CORONA_OBS_OBSERVE_HH
