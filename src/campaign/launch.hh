/**
 * @file
 * One-command distributed campaigns: the shard launcher.
 *
 * launchShards() schedules the N shards of a campaign over a bounded
 * pool of worker *processes* (not threads — a worker that crashes or
 * is OOM-killed takes down only its own shard). Each worker is one
 * expansion of a shell command template run with CORONA_SHARD and
 * CORONA_CHECKPOINT exported. corona-run is the worker that honours
 * this contract; corona-launch starts the corona-run beside it by
 * default (localWorkerCommand), and a --cmd template may wrap it (ssh,
 * a crash injector). The launcher watches each shard's checkpoint file
 * for progress, re-launches crashed or failed shards with exponential
 * backoff, and excludes a shard as poisoned once its retry cap is
 * exhausted.
 * Because workers checkpoint per finished run, a retried shard
 * resumes its own file and re-executes only what is missing.
 *
 * After a launch, mergeCheckpointFiles() (campaign/checkpoint.hh)
 * folds the per-shard files into one record set whose replay through
 * the ordinary sinks is byte-identical to an uninterrupted un-sharded
 * run.
 */

#ifndef CORONA_CAMPAIGN_LAUNCH_HH
#define CORONA_CAMPAIGN_LAUNCH_HH

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/shard.hh"

namespace corona::obs {
class HeartbeatWriter;
} // namespace corona::obs

namespace corona::campaign {

/**
 * Expand a worker command template for one shard. Placeholders:
 * "{shard}" (1-based shard number), "{shards}" (shard count),
 * "{label}" ("i/N", the CORONA_SHARD syntax), and "{checkpoint}"
 * (this shard's checkpoint path). Text without placeholders passes
 * through verbatim — local workers can ignore them entirely and read
 * the exported CORONA_SHARD / CORONA_CHECKPOINT instead; ssh
 * templates need them because environment does not cross ssh.
 */
std::string expandCommandTemplate(const std::string &command_template,
                                  const ShardSpec &shard,
                                  const std::string &checkpoint_path);

/** Single-quote @p text for `sh -c` command templates (embedded
 * single quotes become '\''). */
std::string shellQuote(const std::string &text);

/**
 * The default local shard worker: `<dir>/corona-run --no-table
 * [--quiet] <scenario>`, where <dir> is the directory of @p launcher
 * (a launcher's argv[0]). A launcher found on PATH (no directory)
 * gets a bare `corona-run`. Fatal, naming the path, when <dir> holds
 * no corona-run, so a launch fails before any shard starts.
 */
std::string localWorkerCommand(const std::string &launcher,
                               const std::string &scenario_path,
                               bool quiet);

/** One machine from a --hosts file. */
struct HostSpec
{
    std::string host;      ///< ssh destination ("user@box", "box").
    std::size_t slots = 1; ///< Shards this host runs per round.
};

/**
 * Parse a hosts file: one "host [slots]" per line, '#' comments and
 * blank lines ignored. Fatal on a malformed slots field or an empty
 * file.
 */
std::vector<HostSpec> parseHostsFile(std::istream &is);

/** Inputs for the host-list template expansion. */
struct HostTemplateOptions
{
    /** Command to run on the remote host (a template itself: {shard}
     * / {shards} / {label} placeholders expand per shard). It starts
     * in the login directory and may change directory: the worker
     * variables are exported. */
    std::string remote_command;
    /** Directory on the remote host for its shard checkpoint. A
     * relative path is relative to the login directory, so a remote
     * command that changes directory needs an absolute one. */
    std::string remote_dir = "corona-launch-remote";
    /** Remote-shell command (tests substitute a local stub). */
    std::string rsh = "ssh";
    /** Remote-copy command invoked as `<fetch> host:path local`. */
    std::string fetch = "scp";
};

/**
 * Expand a host list into per-shard command templates for
 * LaunchOptions::commands. Shards round-robin over the hosts'
 * slots; each template runs the remote command under ssh with
 * CORONA_SHARD / CORONA_CHECKPOINT exported (environment does not
 * cross ssh), then copies the remote checkpoint file back to this
 * machine's {checkpoint} so the ordinary merge sees it:
 *
 *   ssh HOST 'mkdir -p DIR && export CORONA_SHARD={label}
 *       CORONA_CHECKPOINT=DIR/shard{shard}.ckpt && REMOTE_CMD'
 *       && scp HOST:DIR/shard{shard}.ckpt {checkpoint}
 *
 * Fatal on an empty host list or remote command.
 */
std::vector<std::string>
hostCommandTemplates(const std::vector<HostSpec> &hosts,
                     std::size_t shard_count,
                     const HostTemplateOptions &options);

/**
 * Retry/backoff bookkeeping for one shard (pure; unit-testable).
 * A shard gets 1 + max_retries attempts; the delay before re-launch
 * grows geometrically from initial_seconds by multiplier per failure,
 * capped at max_seconds.
 */
class RetrySchedule
{
  public:
    RetrySchedule(std::size_t max_retries, double initial_seconds,
                  double multiplier, double max_seconds);

    /**
     * Record one failed attempt. @return the backoff delay (seconds)
     * to wait before the next attempt, or nullopt when the retry cap
     * is exhausted and the shard is poisoned.
     */
    std::optional<double> recordFailure();

    /** Failed attempts recorded so far. */
    std::size_t failures() const { return _failures; }

    /** True once recordFailure has exhausted the retry cap. */
    bool poisoned() const { return _failures > _max_retries; }

    /** The delay after the @p failure_count-th failure (1-based). */
    double delayAfter(std::size_t failure_count) const;

  private:
    std::size_t _max_retries;
    double _initial_seconds;
    double _multiplier;
    double _max_seconds;
    std::size_t _failures = 0;
};

/** Launcher knobs. */
struct LaunchOptions
{
    /** Shards to run (the N of CORONA_SHARD=i/N). */
    std::size_t shard_count = 1;
    /** Concurrent worker processes; 0 means min(hardware concurrency,
     * shard_count). */
    std::size_t max_parallel = 0;
    /** Worker command template (see expandCommandTemplate); run via
     * "sh -c" with CORONA_SHARD / CORONA_CHECKPOINT exported. */
    std::string command;
    /** Per-shard command templates (shard i uses entry i mod size).
     * When non-empty this overrides `command` — the host-list front
     * end uses it to pin each shard to one machine's ssh template. */
    std::vector<std::string> commands;
    /** Directory for per-shard checkpoint files. */
    std::string checkpoint_dir = ".";
    /** Checkpoint file name stem: "<dir>/<prefix><i>.ckpt". */
    std::string checkpoint_prefix = "shard";
    /** Re-launches allowed per shard after its first failure. */
    std::size_t max_retries = 2;
    double backoff_initial_seconds = 0.5;
    double backoff_multiplier = 2.0;
    double backoff_max_seconds = 30.0;
    /** Scheduler poll interval (reaping, backoff, progress watch). */
    double poll_seconds = 0.05;
    /** Warn when a running shard's checkpoint stops growing for this
     * long; 0 disables the stall watch. */
    double stall_warn_seconds = 300.0;
    /** Kill (SIGKILL) a running worker whose checkpoint has not
     * grown for this long and relaunch it, counting the kill against
     * the shard's retry/backoff budget exactly like a crash; 0
     * disables the liveness watch. A worker that checkpoints rows
     * regularly is never at risk — only a provably hung one (no
     * progress past the deadline) is reaped. */
    double stall_kill_seconds = 0.0;
    /** Progress/diagnostic log (nullptr silences the launcher). */
    std::ostream *log = nullptr;
    /** Optional shard-lifecycle heartbeat stream (not owned):
     * launch_begin, shard_start / shard_stall / shard_exit per
     * attempt, launch_done — the host-profiling JSONL schema shared
     * with CampaignRunner (see src/obs/heartbeat.hh). */
    obs::HeartbeatWriter *heartbeat = nullptr;
};

/** What became of one shard. */
struct ShardOutcome
{
    ShardSpec shard{};
    std::string checkpoint_path;
    /** Worker processes launched (1 = no retries needed). */
    std::size_t attempts = 0;
    /** Last attempt exited 0. */
    bool ok = false;
    /** Retry cap exhausted; the shard was abandoned. */
    bool poisoned = false;
    /** Exit code of the last attempt, or 128 + signal number. */
    int exit_code = 0;
    /** Checkpoint rows observed when the shard finished. */
    std::size_t rows = 0;
    /** Workers killed by the liveness watch (stall_kill_seconds). */
    std::size_t stall_kills = 0;
};

/** Everything launchShards observed. */
struct LaunchReport
{
    std::vector<ShardOutcome> shards;

    bool allOk() const;
    /** 1-based shard numbers that were poisoned. */
    std::vector<std::size_t> poisonedShards() const;
    /** The checkpoint paths of shards that produced a file (poisoned
     * shards included — their completed rows still merge). */
    std::vector<std::string> checkpointPaths() const;
};

/** The checkpoint path launchShards assigns to 0-based shard @p i. */
std::string shardCheckpointPath(const LaunchOptions &options,
                                std::size_t index);

/**
 * Run the full shard schedule to completion: launch, watch, retry,
 * exclude. Fatal on unusable options (no command, zero shards) or on
 * fork failure; a worker that cannot even be spawned (exec failure,
 * exit 127) consumes attempts like any other failure. Returns once
 * every shard has either succeeded or been poisoned.
 */
LaunchReport launchShards(const LaunchOptions &options);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_LAUNCH_HH
