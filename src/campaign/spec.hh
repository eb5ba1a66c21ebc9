/**
 * @file
 * Declarative experiment campaigns.
 *
 * A CampaignSpec names the axes of a sweep — workloads, system
 * configurations, seed salts, and SimParams overrides — and expand()
 * flattens the grid into an ordered run list. Every RunPlan is
 * self-contained (config + workload factory + fully resolved SimParams),
 * so plans can execute on any thread in any order while remaining
 * bit-identical to a serial sweep: per-run seeds are derived with
 * splitmix64 from the campaign seed and the run's grid index, never from
 * execution order.
 */

#ifndef CORONA_CAMPAIGN_SPEC_HH
#define CORONA_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "corona/config.hh"
#include "corona/metrics.hh"
#include "corona/simulation.hh"
#include "workload/workload.hh"

namespace corona::campaign {

/** A named workload factory (one grid axis entry). The factory is
 * invoked once per run, possibly concurrently from several worker
 * threads, and must return a fresh workload each time. */
struct WorkloadSpec
{
    std::string name;
    bool synthetic = false;
    std::function<std::unique_ptr<workload::Workload>()> make;
};

/** A labelled SimParams mutation (one grid axis entry). A null apply
 * leaves the base parameters untouched. */
struct ParamsOverride
{
    std::string label;
    std::function<void(core::SimParams &)> apply;
};

/** How each run's RNG seed is chosen. */
enum class SeedPolicy
{
    /** Every run uses base.seed verbatim — the seed repo's serial-loop
     * behaviour, required for bit-exact parity with historical sweeps. */
    Fixed,
    /** Per-run seeds are splitmix64-derived from (campaign_seed + seed
     * salt) and the run index, giving every cell an independent,
     * thread-count-invariant stream. */
    Derived,
};

/** Declarative sweep: the cross product of all non-empty axes. */
struct CampaignSpec
{
    std::string name = "campaign";

    std::vector<WorkloadSpec> workloads;
    std::vector<core::SystemConfig> configs;
    /** Seed-replicate axis; empty behaves as a single salt of 0. */
    std::vector<std::uint64_t> seeds;
    /** SimParams-override axis; empty behaves as a single no-op. */
    std::vector<ParamsOverride> overrides;

    /** Base simulation parameters; overrides mutate a copy per cell. */
    core::SimParams base;

    std::uint64_t campaign_seed = 1;
    SeedPolicy seed_policy = SeedPolicy::Derived;

    /** Grid cardinality (axes normalised as in expand()). */
    std::size_t totalRuns() const;
};

/** One fully resolved cell of the campaign grid. */
struct RunPlan
{
    /** Position in expansion order: workload-major, then config,
     * seed, override. */
    std::size_t index = 0;

    std::size_t workload_index = 0;
    std::size_t config_index = 0;
    std::size_t seed_index = 0;
    std::size_t override_index = 0;

    std::string workload;       ///< WorkloadSpec::name.
    std::string config;         ///< SystemConfig::name().
    std::string override_label; ///< ParamsOverride::label.
    std::uint64_t seed_salt = 0;

    core::SystemConfig system;
    std::function<std::unique_ptr<workload::Workload>()> make_workload;
    /** base + override, with params.seed resolved per seed_policy. */
    core::SimParams params;
};

/** Result of one executed plan. Wall time is informational only and is
 * never serialised by the sinks (it would break bit-identical output). */
struct RunRecord
{
    std::size_t index = 0;
    std::size_t workload_index = 0;
    std::size_t config_index = 0;
    std::size_t seed_index = 0;
    std::size_t override_index = 0;

    std::string workload;
    std::string config;
    std::string override_label;
    std::uint64_t seed = 0; ///< The RNG seed the run actually used.

    core::RunMetrics metrics;
    double wall_seconds = 0.0;
    bool ok = true;
    std::string error;
};

/** An empty record for @p plan: its grid index, axis indices and
 * labels, and seed, with default metrics. A run's result starts from
 * this. */
RunRecord recordFor(const RunPlan &plan);

/**
 * Derive the seed of run @p index: splitmix64 of the campaign seed
 * (salted by the seed-axis value) advanced to the run's grid index.
 */
std::uint64_t deriveRunSeed(std::uint64_t campaign_seed,
                            std::uint64_t seed_salt, std::size_t index);

/**
 * Fatal when two entries of any axis share a label: duplicates would
 * silently alias each other's checkpoint fingerprint rows and
 * last-wins-merge each other's results. Called by expand(); also
 * called by ScenarioSpec::resolve() so a duplicate in a scenario file
 * is rejected at parse/--dry-run time, before a job is distributed.
 */
void validateAxisLabels(const CampaignSpec &spec);

/**
 * Fatal when @p params (the base parameters with @p override_spec
 * applied) issue a warmup_requests + requests that overflows 64 bits:
 * the run would stop before its measurement starts. Called by expand()
 * on every run, and by ScenarioSpec::resolve() so a scenario file is
 * rejected at parse/--dry-run time.
 */
void checkBudget(const CampaignSpec &spec,
                 const ParamsOverride &override_spec,
                 const core::SimParams &params);

/**
 * Flatten the grid into its ordered run list.
 *
 * Fatal if the spec has no workloads or no configs. Empty seed /
 * override axes are treated as a single default entry.
 */
std::vector<RunPlan> expand(const CampaignSpec &spec);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SPEC_HH
