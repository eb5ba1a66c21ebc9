/**
 * @file
 * The unified scenario front end: everything needed to execute a
 * ScenarioSpec — sink wiring, checkpoint session, shard selection,
 * progress — driven entirely by the scenario's [execution] section.
 *
 * runScenario runs a scenario exactly as written; it reads no
 * environment variable. The one exception to "the file is the whole
 * description" is the launcher's worker contract, which corona-run
 * applies through applyWorkerEnvironment before it calls runScenario.
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_RUN_HH
#define CORONA_CAMPAIGN_SCENARIO_RUN_HH

#include <fstream>
#include <memory>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/shard.hh"
#include "campaign/spec.hh"

namespace corona::campaign {

/** Caller knobs for runScenario. */
struct ScenarioRunOptions
{
    /** Suppress progress/ETA and shard chatter on stderr. */
    bool quiet = false;
};

/**
 * The shard-worker contract: CORONA_SHARD ("i/N", strictly parsed)
 * sets execution.shard and CORONA_CHECKPOINT replaces
 * execution.checkpoint. A process given CORONA_SHARD is one worker of
 * a launched grid, so it also drops the scenario's csv, jsonl and
 * summary (the launcher's merge writes those, and no shard ever opens
 * and truncates a shared sink path) and resets threads to 0, so the
 * launcher's CORONA_JOBS sets its worker count. Fatal on a malformed
 * or empty variable, and on CORONA_SHARD with no checkpoint to write.
 */
void applyWorkerEnvironment(ScenarioSpec &scenario);

/**
 * Observability wiring of runScenario, exposed so other hosts of a
 * scenario observe it the same way: creates the obs dir, copies the
 * [observability] settings (sampling, tracing, snapshots, rollup) into
 * RunnerOptions::observability, and opens the heartbeat stream with a
 * per-shard filename suffix so concurrent shard processes never
 * truncate each other. Owns the open heartbeat stream — keep the
 * setup alive for the whole campaign run.
 */
class ScenarioObsSetup
{
  public:
    /**
     * Wire @p observability into @p options. @p options.shard must
     * already hold the shard this process executes (it names the
     * heartbeat and rollup files). No-op when the section is disabled.
     */
    void apply(const ScenarioObservability &observability,
               const std::string &scenario_name,
               RunnerOptions &options);

  private:
    std::ofstream _heartbeatStream;
    std::unique_ptr<obs::HeartbeatWriter> _heartbeat;
};

/** What one scenario execution produced. */
struct ScenarioRunResult
{
    /** The resolved campaign. */
    CampaignSpec spec;
    /** The slice this process executed. */
    ShardSpec shard{};
    /** This shard's records, ascending run index. */
    std::vector<RunRecord> records;

    /** False when only one shard of the grid ran here: file sinks
     * are flushed but no single process holds the full grid. */
    bool complete() const { return shard.isWhole(); }
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
