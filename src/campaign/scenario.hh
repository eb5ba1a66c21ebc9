/**
 * @file
 * Serializable experiment descriptions.
 *
 * A ScenarioSpec is the text-file twin of CampaignSpec: every axis is
 * named data — workload expressions resolved through
 * workload::registry(), configuration expressions resolved through
 * the core::namedConfig()/configKnobs() tables, and overrides as
 * knob=value lists applied through the SimParams knob table — so an
 * experiment can be parsed, fingerprinted and replayed
 * byte-identically. resolve() lowers a scenario to a CampaignSpec;
 * everything downstream (runner, sinks, checkpoint) takes that.
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
 *     csv = fig9.csv
 *
 *     [observability]              # optional; all planes off by default
 *     sample_period = 1000000      # ticks between time-series samples
 *     trace_capacity = 65536       # event-trace ring size (events)
 *     snapshot = on                # end-of-run registry snapshot CSVs
 *     dir = obs                    # output directory for all of it
 *
 * Each key of [scenario], [execution] and [observability] is one row
 * of its section's table (scenarioKeys(), executionKeys(),
 * observabilityKeys()): the row parses the value and prints it back
 * unless it holds its default, so the allowed keys, the parse and the
 * canonical serialisation all come from that one row. The sections
 * are rows of one table too, so the known sections, their parse order
 * and their canonical order come from it.
 *
 * Axis expressions are whitespace-separated: leading tokens (which
 * may contain spaces, e.g. "Hot Spot") name the registry entry or
 * label, and key=value tokens set knobs; a value may be
 * double-quoted to contain spaces (label="XBar/OCM c64 ...").
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_HH
#define CORONA_CAMPAIGN_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario_format.hh"
#include "campaign/spec.hh"
#include "obs/observe.hh"

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
 * No environment variable overrides a key. */
struct ScenarioExecution
{
    /** Worker threads; 0 = CORONA_JOBS or hardware concurrency. */
    std::size_t threads = 0;
    /** Intra-run shard count for the conservative parallel executor
     * (SimParams::sim_threads); 0 = the classic serial engine. Runs
     * that cannot partition (coherent front end, non-partitionable
     * workload, warm-up, tracing) fall back to serial per run. */
    unsigned sim_threads = 0;
    /** Crash-tolerant checkpoint path; empty = none. */
    std::string checkpoint;
    /** Per-run CSV and per-cell summary sink paths. */
    std::string csv, summary;
    /** Progress/ETA reporting on stderr. */
    bool progress = true;
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
    /** The [observability] section: per-run in-sim recording plus the
     * campaign rollup (see src/obs). Every plane defaults off. */
    obs::CampaignObsOptions observability;

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

/** One key of a scenario section. */
template <typename Target>
struct ScenarioKey
{
    const char *key;
    /** Set the key's field from @p entry; fatal naming its line on a
     * malformed value. */
    void (*parse)(Target &target, const ScenarioEntry &entry);
    /** The field as value text, or nothing when it holds its default
     * and the canonical form leaves the key out. */
    std::optional<std::string> (*format)(const Target &target);
};

/** The [scenario] section's keys, in canonical order. */
std::span<const ScenarioKey<ScenarioSpec>> scenarioKeys();

/** The [execution] section's keys, in canonical order. */
std::span<const ScenarioKey<ScenarioExecution>> executionKeys();

/** The [observability] section's keys, in canonical order. */
std::span<const ScenarioKey<obs::CampaignObsOptions>>
observabilityKeys();

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
