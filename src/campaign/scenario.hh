/**
 * @file
 * Serializable experiment descriptions.
 *
 * A ScenarioSpec is the text-file twin of CampaignSpec: every axis is
 * named data — workload expressions resolved through
 * workload::registry(), configuration expressions resolved through
 * the core::namedConfig()/configKnobs() tables, and overrides as
 * knob=value lists applied through the SimParams knob table — so an
 * experiment can be parsed, fingerprinted, shipped to a remote
 * worker, and replayed byte-identically. resolve() lowers a scenario
 * to today's CampaignSpec; everything downstream (runner, sinks,
 * shard, checkpoint) is unchanged.
 *
 * File schema (see README "Scenario files" for the full reference):
 *
 *     [scenario]
 *     name = fig9
 *     requests = 50000
 *     warmup_requests = 10000
 *     seed_policy = fixed          # fixed | derived
 *     seeds = 0,1,2                # replicate salts (optional)
 *
 *     [workloads]
 *     workload = all               # the 15 Table-3 generators
 *     workload = Uniform mean_think=2000
 *
 *     [configs]
 *     config = paper               # the five paper configurations
 *     config = XBar/OCM clusters=256 memory_bandwidth_scale=2
 *
 *     [overrides]                  # optional SimParams axis
 *     override = warm warmup_requests=10000
 *
 *     [execution]                  # optional runtime settings
 *     threads = 0
 *     sim_threads = 4              # conservative shards per simulation
 *     checkpoint = fig9.ckpt
 *     reuse_systems = on           # pool simulation contexts per worker
 *     csv = fig9.csv
 *
 *     [observability]              # optional; all planes off by default
 *     sample_period = 1000000      # ticks between time-series samples
 *     trace_capacity = 65536       # event-trace ring size (events)
 *     snapshot = on                # end-of-run registry snapshot CSVs
 *     heartbeat = on               # host-profiling JSONL stream
 *     dir = obs                    # output directory for all of it
 *
 * Axis expressions are whitespace-separated: leading tokens (which
 * may contain spaces, e.g. "Hot Spot") name the registry entry or
 * label, and key=value tokens set knobs; a value may be
 * double-quoted to contain spaces (label="XBar/OCM c64 ...").
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_HH
#define CORONA_CAMPAIGN_SCENARIO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/shard.hh"
#include "campaign/spec.hh"

namespace corona::campaign {

/** A parsed axis expression: name + knob list. */
struct AxisExpression
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> knobs;
};

/**
 * Tokenise one axis expression (quote-aware). Fatal on an empty
 * expression, an empty knob key, an unterminated quote, or a name
 * token after the first knob; @p what names the axis in diagnostics.
 */
AxisExpression parseAxisExpression(const std::string &text,
                                   const char *what);

/** The canonical single-spaced form of @p expression (knob values
 * with spaces re-quoted). Used for axis labels, so two expressions
 * differing only in whitespace are the same axis entry. */
std::string canonicalExpression(const AxisExpression &expression);

/** Runtime settings carried by the scenario ([execution] section).
 * No environment variable overrides a key; only a launched shard
 * worker's contract adjusts them (applyWorkerEnvironment in
 * scenario_run.hh). */
struct ScenarioExecution
{
    /** Worker threads; 0 = CORONA_JOBS or hardware concurrency. */
    std::size_t threads = 0;
    /** Intra-run shard count for the conservative parallel executor
     * (SimParams::sim_threads); 0 = the classic serial engine. Runs
     * that cannot partition (coherent front end, non-partitionable
     * workload, warm-up, tracing) fall back to serial per run. */
    unsigned sim_threads = 0;
    /** Slice of the grid this process executes. Not a file key:
     * only CORONA_SHARD sets it, through applyWorkerEnvironment. */
    ShardSpec shard{};
    /** Crash-tolerant checkpoint path; empty = none. */
    std::string checkpoint;
    /** Per-run CSV / JSON-lines and per-cell summary sink paths. */
    std::string csv, jsonl, summary;
    /** Progress/ETA reporting on stderr. */
    bool progress = true;
    /** Reuse pooled simulation contexts across a worker's cells
     * (RunnerOptions::reuse_systems); results are bit-identical either
     * way. */
    bool reuse_systems = true;
};

/** The [observability] section: per-run in-sim recording plus campaign
 * heartbeats (see src/obs). Every plane defaults off. */
struct ScenarioObservability
{
    /** Ticks between time-series samples; 0 = no sampler. */
    std::uint64_t sample_period = 0;
    /** Event-trace ring capacity in events; 0 = no tracer. */
    std::uint64_t trace_capacity = 0;
    /** Write an end-of-run registry snapshot CSV per run. */
    bool snapshot = false;
    /** Stream host-profiling heartbeat JSONL from the runner. */
    bool heartbeat = false;
    /** Collect end-of-run registry captures into a campaign rollup
     * file (merged across shards by corona-launch). */
    bool rollup = false;
    /** Directory receiving per-run files and the heartbeat stream
     * (created on demand by runScenario). */
    std::string dir = "obs";

    bool
    enabled() const
    {
        return sample_period > 0 || trace_capacity > 0 || snapshot ||
               heartbeat || rollup;
    }
};

/** A serializable experiment description. */
struct ScenarioSpec
{
    std::string name = "campaign";

    std::uint64_t requests = 50'000;
    std::uint64_t warmup_requests = 0;
    /** Base SimParams seed (every run under SeedPolicy::Fixed). */
    std::uint64_t seed = 1;
    std::uint64_t campaign_seed = 1;
    SeedPolicy seed_policy = SeedPolicy::Derived;
    /** Seed-replicate axis salts; empty = single salt of 0. */
    std::vector<std::uint64_t> seeds;

    /** Axis expressions, verbatim ("all" expands the registry). */
    std::vector<std::string> workloads;
    /** Config expressions ("paper" expands the five paper points). */
    std::vector<std::string> configs;
    /** Override expressions: "label [knob=value ...]". */
    std::vector<std::string> overrides;

    ScenarioExecution execution;
    ScenarioObservability observability;

    /**
     * Lower to an executable CampaignSpec: workload expressions
     * through workload::registry(), configs through
     * core::namedConfig() + applyConfigKnob(), overrides through
     * applySimParamsKnob(). Fatal on any unknown name, unknown knob,
     * or malformed value. A knobbed workload/config without an
     * explicit label gets its canonical expression as the axis label,
     * so distinct variants never alias checkpoint fingerprints.
     */
    CampaignSpec resolve() const;
};

/** Parse scenario text; fatal (with line numbers) on any violation. */
ScenarioSpec parseScenario(std::string_view text);

/** Read and parse @p path; fatal when unreadable. */
ScenarioSpec loadScenarioFile(const std::string &path);

/**
 * Canonical serialisation. parseScenario(serializeScenario(s)) is
 * byte-stable: serialising the re-parsed spec reproduces the exact
 * same bytes, so generated scenario files diff and fingerprint
 * cleanly.
 */
std::string serializeScenario(const ScenarioSpec &spec);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SCENARIO_HH
