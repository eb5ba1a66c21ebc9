/**
 * @file
 * The unified scenario front end: everything needed to execute a
 * ScenarioSpec — sink wiring, checkpoint session, progress — driven
 * entirely by the scenario's [execution] section.
 *
 * runScenario runs a scenario exactly as written; it reads no
 * environment variable beyond CORONA_JOBS, which threads = 0 resolves
 * to.
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_RUN_HH
#define CORONA_CAMPAIGN_SCENARIO_RUN_HH

#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/spec.hh"

namespace corona::campaign {

/** Caller knobs for runScenario. */
struct ScenarioRunOptions
{
    /** Suppress progress/ETA chatter on stderr. */
    bool quiet = false;
};

/**
 * Observability wiring of runScenario, exposed so other hosts of a
 * scenario (perfbench's traced driver) observe it the same way:
 * creates the obs dir and copies the [observability] settings
 * (sampling, tracing, snapshots, rollup, dir) into
 * RunnerOptions::observability.
 */
class ScenarioObsSetup
{
  public:
    /** Wire @p observability into @p options. No-op when the section
     * is disabled. */
    void apply(const obs::CampaignObsOptions &observability,
               const std::string &scenario_name,
               RunnerOptions &options);
};

/** What one scenario execution produced. */
struct ScenarioRunResult
{
    /** The resolved campaign. */
    CampaignSpec spec;
    /** Every record, ascending run index. */
    std::vector<RunRecord> records;
};

/**
 * Resolve and execute @p scenario to completion, exactly as written:
 * open the scenario's sinks and checkpoint (fatal on any unwritable
 * path), simulate the campaign — resuming from the checkpoint when
 * one exists — and verify every sink flushed cleanly.
 */
ScenarioRunResult runScenario(const ScenarioSpec &scenario,
                              const ScenarioRunOptions &options = {});

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SCENARIO_RUN_HH
