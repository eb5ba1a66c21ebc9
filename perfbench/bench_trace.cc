/**
 * @file
 * corona-bench-trace: the benchmark's traced run of one scenario.
 *
 * Drives a scenario through the public entry points corona-run uses —
 * loadScenarioFile, ScenarioSpec::resolve, expand, a SystemPool and a
 * WorkloadCache, runExperiment, and the scenario's CSV, checkpoint and
 * observability outputs — on the calling thread, as corona-run does at
 * threads = 1, and records a span around each call. Its sink bytes
 * equal corona-run's for the same scenario; run.py checks that.
 *
 * Simulated counters come from the rollup capture (every run's
 * end-of-run registry state); host times come from the spans, plus a
 * timing proxy over the workload::Workload interface.
 *
 * usage: corona-bench-trace <scenario> --spans <chrome.json>
 *                           --metrics <metrics.json>
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/obs_rollup.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "corona/exec_plan.hh"
#include "corona/simulation.hh"
#include "obs/heartbeat.hh"
#include "obs/observe.hh"

namespace {

using namespace corona;
using Clock = std::chrono::steady_clock;

/** Spans kept in memory and written as Chrome-trace JSON at the end.
 * Ids start at 1; parent 0 is the process. */
class SpanLog
{
  public:
    std::size_t
    open(const char *name, std::size_t parent, long run = -1)
    {
        _spans.push_back({name, now(), 0.0, parent, run});
        return _spans.size();
    }

    /** Close span @p id; @return its duration in seconds. */
    double
    close(std::size_t id)
    {
        Span &span = _spans[id - 1];
        span.end_us = now();
        return (span.end_us - span.start_us) * 1e-6;
    }

    void
    write(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &span = _spans[i];
            obs::JsonObject args;
            args.field("id", static_cast<std::uint64_t>(i + 1))
                .field("parent", static_cast<std::uint64_t>(span.parent));
            if (span.run >= 0)
                args.field("run", static_cast<std::uint64_t>(span.run));
            obs::JsonObject event;
            event.field("name", span.name)
                .field("ph", "X")
                .field("pid", 1)
                .field("tid", 1)
                .field("ts", span.start_us)
                .field("dur", span.end_us - span.start_us);
            std::string text = event.str();
            text.pop_back(); // Reopen the object to append args.
            os << text << ",\"args\":" << args.str() << "}"
               << (i + 1 < _spans.size() ? ",\n" : "\n");
        }
        os << "]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        double start_us;
        double end_us;
        std::size_t parent;
        long run;
    };

    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _origin)
            .count();
    }

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** Host time and calls spent in workload generators. Sharded runs call a
 * partitionable workload from every shard thread, so each host thread
 * counts into its own cache-line-sized slot: a shared counter would
 * bounce between the shards and slow the K=2 pass that sim.shard_speedup
 * compares against K=1. Read the totals only once every run has
 * returned. */
class GeneratorClock
{
  public:
    struct alignas(64) Slot
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /** The calling thread's slot, made on its first call; the
     * benchmark keeps one clock per process. */
    Slot &
    slot()
    {
        thread_local Slot *mine = nullptr;
        if (!mine) {
            std::lock_guard<std::mutex> lock(_mutex);
            mine = _slots.emplace_back(std::make_unique<Slot>()).get();
        }
        return *mine;
    }

    Slot
    total() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        Slot sum;
        for (const std::unique_ptr<Slot> &s : _slots) {
            sum.ns += s->ns;
            sum.calls += s->calls;
        }
        return sum;
    }

  private:
    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Slot>> _slots;
};

/** Forwards every workload::Workload call, timing the generators. */
class TimedWorkload : public workload::Workload
{
  public:
    TimedWorkload(workload::Workload &inner, GeneratorClock &clock)
        : _inner(inner), _clock(clock)
    {
    }

    std::string name() const override { return _inner.name(); }

    workload::MissRequest
    next(std::size_t thread, sim::Tick now, sim::Rng &rng) override
    {
        const auto start = Clock::now();
        const workload::MissRequest request =
            _inner.next(thread, now, rng);
        charge(start);
        return request;
    }

    workload::ReferenceRequest
    nextReference(std::size_t thread, sim::Tick now,
                  sim::Rng &rng) override
    {
        const auto start = Clock::now();
        const workload::ReferenceRequest request =
            _inner.nextReference(thread, now, rng);
        charge(start);
        return request;
    }

    std::uint64_t paperRequests() const override
    {
        return _inner.paperRequests();
    }

    double offeredBytesPerSecond() const override
    {
        return _inner.offeredBytesPerSecond();
    }

    std::size_t threads() const override { return _inner.threads(); }

    bool
    partitionable(std::size_t clusters,
                  std::size_t threads_per_cluster) const override
    {
        return _inner.partitionable(clusters, threads_per_cluster);
    }

    void reset() override { _inner.reset(); }

  private:
    void
    charge(Clock::time_point start)
    {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start)
                            .count();
        GeneratorClock::Slot &slot = _clock.slot();
        slot.ns += static_cast<std::uint64_t>(ns);
        ++slot.calls;
    }

    workload::Workload &_inner;
    GeneratorClock &_clock;
};

/** Simulated counters summed over every run of the scenario. */
struct Counters
{
    std::map<std::string, double> sums;
    double mc_peak_queue = 0.0;

    /** Fold in one run's end-of-run registry capture. */
    void
    add(const obs::RollupCapture &capture, bool mesh)
    {
        for (std::size_t i = 0; i < capture.paths.size(); ++i) {
            const std::string &path = capture.paths[i];
            const double value = capture.values[i];
            if (path.starts_with("xbar/ch/")) {
                if (path.ends_with("/token/grants"))
                    sums["token_grants"] += value;
                else if (path.ends_with("/token/grants_batched"))
                    sums["grants_batched"] += value;
            } else if (path.starts_with("mc/")) {
                if (path.ends_with("/accesses")) {
                    sums["mc_accesses"] += value;
                } else if (path.ends_with("/peak_queue")) {
                    mc_peak_queue = std::max(mc_peak_queue, value);
                } else if (path.ends_with("/service/count") && value > 0) {
                    // addStats registers count, then mean.
                    sums["mc_service_count"] += value;
                    sums["mc_service_ticks"] += value * capture.values[i + 1];
                }
            } else if (path.starts_with("cache/")) {
                for (const char *key :
                     {"l1/hits", "l1/misses", "l2/hits", "l2/misses"}) {
                    if (path.ends_with(std::string("/") + key)) {
                        std::string name = key;
                        name[2] = '_';
                        sums[name] += value;
                    }
                }
            } else if (path.starts_with("coherence/frontend/")) {
                sums[path.substr(path.rfind('/') + 1)] += value;
            } else if (mesh && path == "net/hops") {
                sums["mesh_hops"] += value;
            }
        }
    }
};

int
usage()
{
    std::cerr << "usage: corona-bench-trace <scenario> --spans <path> "
                 "--metrics <path>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto process_start = Clock::now();
    std::string scenario_path, spans_path, metrics_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--spans" && has_value) {
            spans_path = argv[++i];
        } else if (arg == "--metrics" && has_value) {
            metrics_path = argv[++i];
        } else if (!arg.starts_with("-") && scenario_path.empty()) {
            scenario_path = arg;
        } else {
            return usage();
        }
    }
    if (scenario_path.empty() || spans_path.empty() || metrics_path.empty())
        return usage();

    try {
        SpanLog spans;
        double parse_s = 0.0, lease_s = 0.0, sink_s = 0.0, sim_s = 0.0;
        double mesh_sim_s = 0.0, xbar_sim_s = 0.0, token_wait_ns = 0.0;
        std::uint64_t events = 0, failed = 0, xbar_runs = 0;
        unsigned shards = 0;

        std::size_t span = spans.open("loadScenarioFile", 0);
        const campaign::ScenarioSpec scenario =
            campaign::loadScenarioFile(scenario_path);
        parse_s += spans.close(span);
        span = spans.open("ScenarioSpec::resolve", 0);
        const campaign::CampaignSpec spec = scenario.resolve();
        parse_s += spans.close(span);
        span = spans.open("expand", 0);
        const std::vector<campaign::RunPlan> plans = campaign::expand(spec);
        parse_s += spans.close(span);

        // The scenario's own outputs, opened as runScenario opens them.
        span = spans.open("sinks.open", 0);
        campaign::RunnerOptions runner_options;
        campaign::ScenarioObsSetup obs_setup;
        obs_setup.apply(scenario.observability, scenario.name,
                        runner_options);
        const obs::CampaignObsOptions &observe =
            runner_options.observability;
        std::vector<campaign::ResultSink *> sinks;
        std::ofstream csv_stream;
        std::unique_ptr<campaign::CsvSink> csv;
        if (!scenario.execution.csv.empty()) {
            csv_stream.open(scenario.execution.csv, std::ios::trunc);
            if (!csv_stream)
                sim::fatal("cannot open \"" + scenario.execution.csv +
                           "\" for writing");
            csv = std::make_unique<campaign::CsvSink>(csv_stream);
            sinks.push_back(csv.get());
        }
        std::unique_ptr<campaign::CheckpointFile> checkpoint;
        if (!scenario.execution.checkpoint.empty()) {
            checkpoint = std::make_unique<campaign::CheckpointFile>(
                scenario.execution.checkpoint, spec);
            if (!checkpoint->completed().empty())
                sim::fatal("checkpoint \"" +
                           scenario.execution.checkpoint +
                           "\" already holds runs; the traced run must "
                           "execute every cell");
            sinks.push_back(&checkpoint->sink());
        }
        for (campaign::ResultSink *sink : sinks)
            sink->begin(spec, plans.size());
        sink_s += spans.close(span);

        core::SystemPool pool;
        campaign::WorkloadCache workloads;
        GeneratorClock generators;
        Counters counters;
        campaign::ObsRollup rollup;

        for (const campaign::RunPlan &plan : plans) {
            const long run = static_cast<long>(plan.index);
            const std::size_t run_span = spans.open("run", 0, run);
            campaign::RunRecord record;
            record.index = plan.index;
            record.workload_index = plan.workload_index;
            record.config_index = plan.config_index;
            record.seed_index = plan.seed_index;
            record.override_index = plan.override_index;
            record.workload = plan.workload;
            record.config = plan.config;
            record.override_label = plan.override_label;
            record.seed = plan.params.seed;

            obs::RunObservability run_obs;
            if (observe.enabled())
                run_obs = observe.forRun(plan.index);
            obs::RollupCapture capture;
            capture.want_paths = true;
            run_obs.capture = &capture;
            const core::NetworkKind network = plan.system.network;
            const bool mesh = network == core::NetworkKind::HMesh ||
                              network == core::NetworkKind::LMesh;
            try {
                span = spans.open("WorkloadCache::lease", run_span, run);
                TimedWorkload workload(workloads.lease(plan), generators);
                spans.close(span);
                const unsigned threads = core::effectiveSimThreads(
                    plan.params.sim_threads, plan.system, workload,
                    plan.params.warmup_requests,
                    run_obs.trace_capacity > 0);
                span = spans.open("SystemPool::lease", run_span, run);
                core::SimContext &ctx = pool.lease(plan.system, threads);
                lease_s += spans.close(span);
                shards = std::max(shards, ctx.simThreads());
                span = spans.open("runExperiment", run_span, run);
                record.metrics =
                    core::runExperiment(ctx, workload, plan.params, run_obs);
                const double seconds = spans.close(span);
                sim_s += seconds;
                if (mesh)
                    mesh_sim_s += seconds;
                else if (network == core::NetworkKind::XBar)
                    xbar_sim_s += seconds;
            } catch (const std::exception &e) {
                record.ok = false;
                record.error = e.what();
                record.metrics = core::RunMetrics{};
                record.metrics.workload = plan.workload;
                record.metrics.config = plan.config;
                ++failed;
            }
            if (record.ok) {
                events += record.metrics.events_executed;
                counters.add(capture, mesh);
                if (network == core::NetworkKind::XBar) {
                    token_wait_ns += record.metrics.token_wait_ns;
                    ++xbar_runs;
                }
                if (observe.rollup)
                    rollup.addRun(plan.config, plan.index,
                                  capture.end_tick, capture.paths,
                                  std::move(capture.values));
            }
            span = spans.open("ResultSink::consume", run_span, run);
            for (campaign::ResultSink *sink : sinks)
                sink->consume(record);
            sink_s += spans.close(span);
            spans.close(run_span);
        }

        span = spans.open("sinks.end", 0);
        for (campaign::ResultSink *sink : sinks)
            sink->end();
        csv_stream.flush();
        if (csv && !csv_stream)
            sim::fatal("csv sink: write error, results file is "
                       "incomplete");
        if (checkpoint)
            checkpoint->checkWritten();
        sink_s += spans.close(span);
        if (observe.rollup) {
            span = spans.open("writeRollupFile", 0);
            campaign::writeRollupFile(observe.dir + "/rollup.csv", rollup);
            spans.close(span);
        }

        const GeneratorClock::Slot generated = generators.total();
        const double service_count = counters.sums["mc_service_count"];
        obs::JsonObject metrics;
        metrics.field("runs", static_cast<std::uint64_t>(plans.size()))
            .field("failed", failed)
            .field("shards", shards)
            .field("wall_s", std::chrono::duration<double>(
                                 Clock::now() - process_start)
                                 .count())
            .field("parse_s", parse_s)
            .field("lease_s", lease_s)
            .field("sink_s", sink_s)
            .field("sim_s", sim_s)
            .field("mesh_sim_s", mesh_sim_s)
            .field("xbar_sim_s", xbar_sim_s)
            .field("gen_s", static_cast<double>(generated.ns) * 1e-9)
            .field("gen_calls", generated.calls)
            .field("events", events)
            .field("mc_peak_queue", counters.mc_peak_queue)
            .field("mc_service_ns",
                   service_count > 0.0
                       ? counters.sums["mc_service_ticks"] /
                             service_count /
                             static_cast<double>(sim::oneNanosecond)
                       : 0.0)
            .field("token_wait_ns",
                   xbar_runs > 0
                       ? token_wait_ns / static_cast<double>(xbar_runs)
                       : 0.0);
        for (const auto &[key, value] : counters.sums)
            metrics.field(key.c_str(), value);

        std::ofstream spans_out(spans_path, std::ios::trunc);
        spans.write(spans_out);
        std::ofstream metrics_out(metrics_path, std::ios::trunc);
        metrics_out << metrics.str() << "\n";
        if (!spans_out.flush() || !metrics_out.flush())
            sim::fatal("cannot write the span or metrics file");
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "corona-bench-trace: " << e.what() << "\n";
        return 1;
    }
}
