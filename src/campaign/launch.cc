#include "campaign/launch.hh"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/progress.hh"
#include "obs/heartbeat.hh"
#include "sim/logging.hh"

namespace corona::campaign {

std::string
expandCommandTemplate(const std::string &command_template,
                      const ShardSpec &shard,
                      const std::string &checkpoint_path)
{
    const std::pair<const char *, std::string> substitutions[] = {
        {"{shard}", std::to_string(shard.index + 1)},
        {"{shards}", std::to_string(shard.count)},
        {"{label}", shard.label()},
        {"{checkpoint}", checkpoint_path},
    };
    std::string command = command_template;
    for (const auto &[placeholder, value] : substitutions) {
        const std::size_t width = std::strlen(placeholder);
        std::size_t at = 0;
        while ((at = command.find(placeholder, at)) !=
               std::string::npos) {
            command.replace(at, width, value);
            at += value.size();
        }
    }
    return command;
}

std::string
shellQuote(const std::string &text)
{
    std::string quoted = "'";
    for (const char ch : text) {
        if (ch == '\'')
            quoted += "'\\''";
        else
            quoted += ch;
    }
    quoted += '\'';
    return quoted;
}

std::string
localWorkerCommand(const std::string &launcher,
                   const std::string &scenario_path, bool quiet)
{
    // A launcher found on PATH (no directory in argv[0]) finds its
    // worker the same way.
    const std::filesystem::path dir =
        std::filesystem::path(launcher).parent_path();
    const std::string worker =
        dir.empty() ? "corona-run" : (dir / "corona-run").string();
    if (!dir.empty() && !std::filesystem::exists(worker))
        sim::fatal("no shard worker at \"" + worker +
                   "\": corona-run must sit beside the launcher");
    return shellQuote(worker) + " --no-table" +
           (quiet ? " --quiet " : " ") + shellQuote(scenario_path);
}

std::vector<HostSpec>
parseHostsFile(std::istream &is)
{
    std::vector<HostSpec> hosts;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        HostSpec host;
        if (!(fields >> host.host))
            continue; // Blank or comment-only line.
        std::string slots;
        if (fields >> slots) {
            const auto parsed = std::strtoull(slots.c_str(), nullptr, 10);
            if (parsed == 0 || std::to_string(parsed) != slots)
                sim::fatal("hosts file line " +
                           std::to_string(line_number) +
                           ": slots must be a positive integer, got \"" +
                           slots + "\"");
            host.slots = static_cast<std::size_t>(parsed);
            std::string extra;
            if (fields >> extra)
                sim::fatal("hosts file line " +
                           std::to_string(line_number) +
                           ": unexpected trailing \"" + extra + "\"");
        }
        hosts.push_back(std::move(host));
    }
    if (hosts.empty())
        sim::fatal("hosts file names no hosts");
    return hosts;
}

std::vector<std::string>
hostCommandTemplates(const std::vector<HostSpec> &hosts,
                     std::size_t shard_count,
                     const HostTemplateOptions &options)
{
    if (hosts.empty())
        sim::fatal("hostCommandTemplates: empty host list");
    if (options.remote_command.empty())
        sim::fatal("hostCommandTemplates: no remote command");

    // One entry per slot so a 4-slot machine takes 4 shards per
    // round of the modulo assignment.
    std::vector<const HostSpec *> slots;
    for (const HostSpec &host : hosts) {
        for (std::size_t s = 0; s < host.slots; ++s)
            slots.push_back(&host);
    }

    std::vector<std::string> templates;
    templates.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        const HostSpec &host = *slots[i % slots.size()];
        const std::string remote_checkpoint =
            options.remote_dir + "/shard{shard}.ckpt";
        const std::string remote =
            "mkdir -p " + shellQuote(options.remote_dir) +
            " && export CORONA_SHARD={label} CORONA_CHECKPOINT=" +
            shellQuote(remote_checkpoint) + " && " +
            options.remote_command;
        templates.push_back(options.rsh + " " + host.host + " " +
                            shellQuote(remote) + " && " +
                            options.fetch + " " +
                            shellQuote(host.host + ":" +
                                       remote_checkpoint) +
                            " {checkpoint}");
    }
    return templates;
}

RetrySchedule::RetrySchedule(std::size_t max_retries,
                             double initial_seconds, double multiplier,
                             double max_seconds)
    : _max_retries(max_retries), _initial_seconds(initial_seconds),
      _multiplier(multiplier), _max_seconds(max_seconds)
{
}

double
RetrySchedule::delayAfter(std::size_t failure_count) const
{
    double delay = _initial_seconds;
    for (std::size_t i = 1; i < failure_count; ++i) {
        delay *= _multiplier;
        if (delay >= _max_seconds)
            break;
    }
    return std::min(delay, _max_seconds);
}

std::optional<double>
RetrySchedule::recordFailure()
{
    ++_failures;
    if (poisoned())
        return std::nullopt;
    return delayAfter(_failures);
}

bool
LaunchReport::allOk() const
{
    return std::all_of(shards.begin(), shards.end(),
                       [](const ShardOutcome &s) { return s.ok; });
}

std::vector<std::size_t>
LaunchReport::poisonedShards() const
{
    std::vector<std::size_t> poisoned;
    for (const ShardOutcome &outcome : shards) {
        if (outcome.poisoned)
            poisoned.push_back(outcome.shard.index + 1);
    }
    return poisoned;
}

std::vector<std::string>
LaunchReport::checkpointPaths() const
{
    std::vector<std::string> paths;
    for (const ShardOutcome &outcome : shards) {
        if (std::filesystem::exists(outcome.checkpoint_path))
            paths.push_back(outcome.checkpoint_path);
    }
    return paths;
}

std::string
shardCheckpointPath(const LaunchOptions &options, std::size_t index)
{
    return (std::filesystem::path(options.checkpoint_dir) /
            (options.checkpoint_prefix + std::to_string(index + 1) +
             ".ckpt"))
        .string();
}

namespace {

/** Checkpoint rows on disk (newline-terminated, non-header lines) —
 * the launcher's shard-progress signal. 0 when the file is absent. */
std::size_t
countCheckpointRows(const std::string &path)
{
    std::ifstream stream(path);
    if (!stream)
        return 0;
    std::size_t rows = 0;
    std::string line;
    while (std::getline(stream, line)) {
        if (stream.eof())
            break; // Torn final line: not a finished row.
        // Rows start with a run index; headers with the file magic.
        if (!line.empty() && line[0] >= '0' && line[0] <= '9')
            ++rows;
    }
    return rows;
}

/** Run @p command under "sh -c" with the shard environment exported.
 * Returns the child pid; fatal when fork itself fails. */
pid_t
spawnWorker(const std::string &command, const std::string &shard_label,
            const std::string &checkpoint_path)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        sim::fatal("launch: fork failed: " +
                   std::string(std::strerror(errno)));
    if (pid == 0) {
        // Own process group: a stall kill must take down the whole
        // worker tree (sh + whatever it forked for compound
        // commands), or an orphaned grandchild would keep appending
        // to the checkpoint while the relaunched attempt runs.
        ::setpgid(0, 0);
        ::setenv("CORONA_SHARD", shard_label.c_str(), 1);
        ::setenv("CORONA_CHECKPOINT", checkpoint_path.c_str(), 1);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127); // exec failed; report like sh does.
    }
    // Mirror the child's setpgid (whichever runs first wins; both
    // agree), so a kill can target the group immediately.
    ::setpgid(pid, pid);
    return pid;
}

/** Scheduler-side view of one shard. */
struct ShardState
{
    ShardOutcome outcome;
    std::string command;
    RetrySchedule retries;
    pid_t pid = -1;              ///< Running worker, or -1.
    double eligible_at = 0.0;    ///< Earliest (re)launch time.
    std::uintmax_t bytes_seen = 0; ///< Checkpoint-size watermark.
    double last_growth = 0.0;    ///< When the checkpoint last grew.
    bool stall_warned = false;
    bool stall_killed = false;   ///< This attempt was reaped hung.

    bool running() const { return pid >= 0; }
    bool finished() const
    {
        return outcome.ok || outcome.poisoned;
    }
};

} // namespace

LaunchReport
launchShards(const LaunchOptions &options)
{
    if (options.command.empty() && options.commands.empty())
        sim::fatal("launch: no worker command configured");
    if (options.shard_count == 0)
        sim::fatal("launch: shard count must be at least 1");

    std::size_t max_parallel = options.max_parallel;
    if (max_parallel == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        max_parallel = hw > 0 ? hw : 1;
    }
    max_parallel = std::min(max_parallel, options.shard_count);

    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec)
        sim::fatal("launch: cannot create checkpoint directory \"" +
                   options.checkpoint_dir + "\": " + ec.message());

    const auto started = std::chrono::steady_clock::now();
    const auto now = [&started] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
            .count();
    };
    const auto log = [&options](const std::string &message) {
        if (options.log)
            *options.log << "launch: " << message << std::endl;
    };

    std::vector<ShardState> states;
    states.reserve(options.shard_count);
    for (std::size_t i = 0; i < options.shard_count; ++i) {
        ShardState state{
            .outcome = {},
            .command = {},
            .retries = RetrySchedule(options.max_retries,
                                     options.backoff_initial_seconds,
                                     options.backoff_multiplier,
                                     options.backoff_max_seconds),
        };
        state.outcome.shard = ShardSpec{i, options.shard_count};
        state.outcome.checkpoint_path = shardCheckpointPath(options, i);
        const std::string &shard_template =
            options.commands.empty()
                ? options.command
                : options.commands[i % options.commands.size()];
        state.command = expandCommandTemplate(
            shard_template, state.outcome.shard,
            state.outcome.checkpoint_path);
        states.push_back(std::move(state));
    }

    log(std::to_string(options.shard_count) + " shards over " +
        std::to_string(max_parallel) + " worker processes, " +
        std::to_string(options.max_retries) + " retries per shard");
    if (options.heartbeat)
        options.heartbeat->write(
            obs::heartbeatEvent("launch_begin")
                .field("shards", static_cast<std::uint64_t>(
                                     options.shard_count))
                .field("max_parallel",
                       static_cast<std::uint64_t>(max_parallel))
                .field("max_retries", static_cast<std::uint64_t>(
                                          options.max_retries)));

    std::size_t running = 0;
    while (true) {
        bool all_finished = true;
        // Launch every eligible shard while pool slots are free.
        for (ShardState &state : states) {
            if (state.finished() || state.running())
                continue;
            all_finished = false;
            if (running >= max_parallel || now() < state.eligible_at)
                continue;
            state.pid = spawnWorker(state.command,
                                    state.outcome.shard.label(),
                                    state.outcome.checkpoint_path);
            ++state.outcome.attempts;
            state.last_growth = now();
            state.stall_warned = false;
            state.stall_killed = false;
            ++running;
            log("shard " + state.outcome.shard.label() + " attempt " +
                std::to_string(state.outcome.attempts) + " started (pid " +
                std::to_string(state.pid) + ")");
            if (options.heartbeat)
                options.heartbeat->write(
                    obs::heartbeatEvent("shard_start")
                        .field("shard", state.outcome.shard.label())
                        .field("attempt",
                               static_cast<std::uint64_t>(
                                   state.outcome.attempts))
                        .field("pid", static_cast<std::int64_t>(
                                          state.pid)));
        }

        // Reap finished workers and watch running ones for progress.
        for (ShardState &state : states) {
            if (!state.running()) {
                if (!state.finished())
                    all_finished = false;
                continue;
            }
            all_finished = false;

            // File size is the growth signal (near-free to poll);
            // rows are counted only when the file actually grew, so
            // the checkpoint is parsed once per finished run rather
            // than once per poll tick.
            std::error_code size_ec;
            const std::uintmax_t bytes = std::filesystem::file_size(
                state.outcome.checkpoint_path, size_ec);
            if (!size_ec && bytes != state.bytes_seen) {
                state.bytes_seen = bytes;
                state.last_growth = now();
                state.stall_warned = false;
                log("shard " + state.outcome.shard.label() + ": " +
                    std::to_string(countCheckpointRows(
                        state.outcome.checkpoint_path)) +
                    " runs checkpointed");
            } else if (options.stall_kill_seconds > 0.0 &&
                       !state.stall_killed &&
                       now() - state.last_growth >
                           options.stall_kill_seconds) {
                // Liveness: the worker made no checkpoint progress
                // past the deadline — reap it and let the ordinary
                // retry/backoff path relaunch (or poison) the shard.
                state.stall_killed = true;
                ++state.outcome.stall_kills;
                if (options.heartbeat)
                    options.heartbeat->write(
                        obs::heartbeatEvent("shard_stall")
                            .field("shard",
                                   state.outcome.shard.label())
                            .field("stalled_s",
                                   now() - state.last_growth)
                            .field("killed", true));
                log("shard " + state.outcome.shard.label() +
                    " has checkpointed nothing for " +
                    formatSeconds(now() - state.last_growth) +
                    " — killing hung worker (pid " +
                    std::to_string(state.pid) + ") for relaunch");
                // The negative pid addresses the worker's process
                // group: compound commands (`a && b`, ssh wrappers)
                // die as a tree, not just the sh parent.
                ::kill(-state.pid, SIGKILL);
            } else if (options.stall_warn_seconds > 0.0 &&
                       !state.stall_warned &&
                       now() - state.last_growth >
                           options.stall_warn_seconds) {
                state.stall_warned = true;
                if (options.heartbeat)
                    options.heartbeat->write(
                        obs::heartbeatEvent("shard_stall")
                            .field("shard",
                                   state.outcome.shard.label())
                            .field("stalled_s",
                                   now() - state.last_growth)
                            .field("killed", false));
                log("shard " + state.outcome.shard.label() +
                    " has checkpointed nothing for " +
                    formatSeconds(now() - state.last_growth) +
                    " — worker may be stuck");
            }

            int status = 0;
            const pid_t reaped = ::waitpid(state.pid, &status, WNOHANG);
            if (reaped == 0)
                continue; // Still running.
            if (reaped < 0)
                sim::fatal("launch: waitpid failed for shard " +
                           state.outcome.shard.label() + ": " +
                           std::string(std::strerror(errno)));
            state.pid = -1;
            --running;

            int exit_code = 0;
            if (WIFEXITED(status))
                exit_code = WEXITSTATUS(status);
            else if (WIFSIGNALED(status))
                exit_code = 128 + WTERMSIG(status);
            state.outcome.exit_code = exit_code;
            state.outcome.rows =
                countCheckpointRows(state.outcome.checkpoint_path);
            if (options.heartbeat)
                options.heartbeat->write(
                    obs::heartbeatEvent("shard_exit")
                        .field("shard", state.outcome.shard.label())
                        .field("attempt",
                               static_cast<std::uint64_t>(
                                   state.outcome.attempts))
                        .field("exit_code", exit_code)
                        .field("rows", static_cast<std::uint64_t>(
                                           state.outcome.rows))
                        .field("ok", exit_code == 0));

            if (exit_code == 0) {
                state.outcome.ok = true;
                log("shard " + state.outcome.shard.label() +
                    " finished (" +
                    std::to_string(state.outcome.rows) + " runs, " +
                    std::to_string(state.outcome.attempts) +
                    (state.outcome.attempts == 1 ? " attempt)"
                                                 : " attempts)"));
                continue;
            }
            const auto delay = state.retries.recordFailure();
            if (!delay) {
                state.outcome.poisoned = true;
                log("shard " + state.outcome.shard.label() +
                    " poisoned after " +
                    std::to_string(state.outcome.attempts) +
                    " attempts (exit " + std::to_string(exit_code) +
                    ") — excluded from further retries");
                continue;
            }
            state.eligible_at = now() + *delay;
            log("shard " + state.outcome.shard.label() + " attempt " +
                std::to_string(state.outcome.attempts) +
                (state.stall_killed ? " killed hung (exit "
                                    : " failed (exit ") +
                std::to_string(exit_code) + "); retrying in " +
                formatSeconds(*delay));
        }

        if (all_finished)
            break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(options.poll_seconds, 0.001)));
    }

    LaunchReport report;
    report.shards.reserve(states.size());
    for (ShardState &state : states)
        report.shards.push_back(std::move(state.outcome));
    if (options.heartbeat) {
        std::uint64_t ok = 0;
        std::uint64_t poisoned = 0;
        for (const ShardOutcome &outcome : report.shards) {
            if (outcome.ok)
                ++ok;
            else if (outcome.poisoned)
                ++poisoned;
        }
        options.heartbeat->write(
            obs::heartbeatEvent("launch_done")
                .field("ok", ok)
                .field("poisoned", poisoned)
                .field("wall_s", now()));
    }
    return report;
}

} // namespace corona::campaign
