/**
 * @file
 * corona-launch: one-command distributed scenario runs.
 *
 * Schedules the N shards of a scenario file (--scenario) over a bounded
 * pool of worker processes (default: the corona-run beside this
 * binary, locally; any template via --cmd or --hosts, e.g. ssh onto
 * other hosts), retries crashed or failed shards with exponential
 * backoff, merges the per-shard checkpoint files, and replays the
 * merged record set through the scenario's own csv / jsonl / summary
 * sinks — bytes identical to an uninterrupted un-sharded run (assert
 * it live with --verify). A poisoned shard (retry cap exhausted) does
 * not lose the others' work: everything completed is merged, and
 * re-running the same command resumes the per-shard files.
 */

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/checkpoint.hh"
#include "campaign/launch.hh"
#include "campaign/obs_rollup.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/sink.hh"
#include "corona/env.hh"
#include "corona/simulation.hh"
#include "obs/heartbeat.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;

struct CliOptions
{
    std::string scenario; ///< The scenario file (required).
    std::size_t shards = 4;
    std::size_t jobs = 0; // 0 = hardware concurrency.
    std::string dir = "corona-launch";
    std::size_t retries = 2;
    double backoff = 0.5;
    double stall_kill = 0.0; // 0 = liveness watch off.
    std::string command; // Empty = the corona-run beside this binary.
    std::string hosts_file;
    std::string remote_cmd;
    std::string remote_dir = "corona-launch-remote";
    std::string rsh = "ssh";
    std::string fetch = "scp";
    std::string merged;
    std::string heartbeat; ///< Shard-lifecycle JSONL path; empty = off.
    bool verify = false;
    bool quiet = false;
    std::string self; ///< argv[0], to find the corona-run beside it.
};

void
usage(std::ostream &os)
{
    os << "corona-launch — distribute a scenario over worker "
          "processes,\nretry failures, merge checkpoints, and render "
          "merged results.\n\n"
          "usage: corona-launch --scenario F [options]\n\n"
          "  --scenario F    the scenario file to distribute "
          "(required; workers\n"
          "                  receive its path, so the grid, the "
          "request budget and\n"
          "                  the merged csv/jsonl/summary paths are "
          "the file's)\n"
          "  --shards N      shard count (default 4)\n"
          "  --jobs M        concurrent worker processes (default: "
          "hardware)\n"
          "  --dir PATH      per-shard checkpoint directory (default "
          "corona-launch/)\n"
          "  --retries K     re-launches per shard after a failure "
          "(default 2)\n"
          "  --backoff S     initial retry backoff seconds, doubling "
          "per failure (default 0.5)\n"
          "  --cmd TEMPLATE  worker command run as `sh -c` with "
          "CORONA_SHARD/CORONA_CHECKPOINT\n"
          "                  exported; {shard} {shards} {label} "
          "{checkpoint} expand per shard\n"
          "                  (default: the corona-run beside this "
          "binary)\n"
          "  --stall-kill S  kill and relaunch a worker whose "
          "checkpoint stops growing\n"
          "                  for S seconds (counts against --retries; "
          "default: off)\n"
          "  --hosts FILE    spread shards over ssh hosts (one "
          "\"host [slots]\" per line);\n"
          "                  requires --remote-cmd; shard checkpoints "
          "are fetched back\n"
          "                  automatically before the merge\n"
          "  --remote-cmd T  command run on each host (e.g. "
          "'corona-run --no-table\n"
          "                  fig9.scenario'); "
          "{shard}/{label} expand per shard\n"
          "  --remote-dir P  remote checkpoint directory (default "
          "corona-launch-remote)\n"
          "  --rsh CMD       remote shell (default ssh)\n"
          "  --fetch CMD     remote copy, `CMD host:path local` "
          "(default scp)\n"
          "  --merged PATH   merged checkpoint (default "
          "<dir>/merged.ckpt)\n"
          "  --heartbeat P   stream shard-lifecycle heartbeats "
          "(launch_begin,\n"
          "                  shard_start/stall/exit, launch_done) as "
          "JSONL to P\n"
          "  --verify        also run the scenario un-sharded in-process "
          "and assert the\n"
          "                  merged sink bytes match exactly\n"
          "  --quiet         suppress launcher/worker progress on "
          "stderr\n";
}

[[noreturn]] void
badUsage(const std::string &message)
{
    std::cerr << "corona-launch: " << message << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &value, const char *what)
{
    const auto parsed = core::parsePositiveCount(value);
    if (!parsed)
        badUsage(std::string(what) + " must be a positive integer, "
                                     "got \"" +
                 value + "\"");
    return *parsed;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    const auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            badUsage(std::string(flag) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scenario") {
            options.scenario = next(i, "--scenario");
        } else if (arg == "--shards") {
            options.shards = parseCount(next(i, "--shards"), "--shards");
        } else if (arg == "--jobs") {
            options.jobs = parseCount(next(i, "--jobs"), "--jobs");
        } else if (arg == "--dir") {
            options.dir = next(i, "--dir");
        } else if (arg == "--retries") {
            // 0 is legitimate here: fail a shard on its first crash.
            const std::string value = next(i, "--retries");
            options.retries =
                value == "0" ? 0 : parseCount(value, "--retries");
        } else if (arg == "--backoff") {
            // Strict like every other flag: trailing garbage ("0.5s")
            // must not be silently accepted.
            const std::string value = next(i, "--backoff");
            const auto res = std::from_chars(
                value.data(), value.data() + value.size(),
                options.backoff);
            if (res.ec != std::errc{} ||
                res.ptr != value.data() + value.size() ||
                !(options.backoff >= 0))
                badUsage("--backoff must be a non-negative number of "
                         "seconds, got \"" +
                         value + "\"");
        } else if (arg == "--cmd") {
            options.command = next(i, "--cmd");
        } else if (arg == "--stall-kill") {
            const std::string value = next(i, "--stall-kill");
            const auto res = std::from_chars(
                value.data(), value.data() + value.size(),
                options.stall_kill);
            if (res.ec != std::errc{} ||
                res.ptr != value.data() + value.size() ||
                !(options.stall_kill >= 0))
                badUsage("--stall-kill must be a non-negative number "
                         "of seconds, got \"" +
                         value + "\"");
        } else if (arg == "--hosts") {
            options.hosts_file = next(i, "--hosts");
        } else if (arg == "--remote-cmd") {
            options.remote_cmd = next(i, "--remote-cmd");
        } else if (arg == "--remote-dir") {
            options.remote_dir = next(i, "--remote-dir");
        } else if (arg == "--rsh") {
            options.rsh = next(i, "--rsh");
        } else if (arg == "--fetch") {
            options.fetch = next(i, "--fetch");
        } else if (arg == "--merged") {
            options.merged = next(i, "--merged");
        } else if (arg == "--heartbeat") {
            options.heartbeat = next(i, "--heartbeat");
        } else if (arg == "--verify") {
            options.verify = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            badUsage("unknown argument \"" + arg + "\"");
        }
    }
    if (options.scenario.empty())
        badUsage("--scenario is required (the scenario file defines "
                 "the grid and the request budget)");
    return options;
}

/** Replay @p records through fresh CSV/JSONL/summary sinks. With a
 * complete merged record set nothing re-executes; any hole (e.g. a
 * poisoned shard's missing cells) would execute in-process here, so
 * callers gate on the launch report instead. */
struct RenderedSinks
{
    std::string csv, jsonl, summary;
};

RenderedSinks
renderRecords(const campaign::CampaignSpec &spec,
              std::vector<campaign::RunRecord> records)
{
    std::ostringstream csv_os, jsonl_os, summary_os;
    campaign::CsvSink csv(csv_os);
    campaign::JsonLinesSink jsonl(jsonl_os);
    campaign::SummarySink summary(&summary_os);
    campaign::CampaignRunner runner;
    runner.addSink(csv);
    runner.addSink(jsonl);
    runner.addSink(summary);
    runner.run(spec, std::move(records));
    return {csv_os.str(), jsonl_os.str(), summary_os.str()};
}

void
writeOutput(const std::string &path, const std::string &bytes,
            const char *what)
{
    if (path.empty())
        return;
    std::ofstream stream(path, std::ios::trunc);
    stream << bytes;
    stream.flush();
    if (!stream)
        sim::fatal(std::string("corona-launch: cannot write ") + what +
                   " \"" + path + "\"");
    std::cerr << "corona-launch: wrote " << what << " " << path << "\n";
}

int
launchMain(const CliOptions &options)
{
    const campaign::ScenarioSpec scenario =
        campaign::loadScenarioFile(options.scenario);
    const campaign::CampaignSpec spec = scenario.resolve();

    campaign::LaunchOptions launch;
    launch.shard_count = options.shards;
    launch.max_parallel = options.jobs;
    launch.checkpoint_dir = options.dir;
    launch.max_retries = options.retries;
    launch.backoff_initial_seconds = options.backoff;
    launch.stall_kill_seconds = options.stall_kill;
    if (!options.quiet)
        launch.log = &std::cerr;
    std::ofstream heartbeat_stream;
    std::unique_ptr<obs::HeartbeatWriter> heartbeat;
    if (!options.heartbeat.empty()) {
        heartbeat_stream.open(options.heartbeat, std::ios::trunc);
        if (!heartbeat_stream)
            sim::fatal("corona-launch: cannot open heartbeat \"" +
                       options.heartbeat + "\" for writing");
        heartbeat =
            std::make_unique<obs::HeartbeatWriter>(heartbeat_stream);
        launch.heartbeat = heartbeat.get();
    }

    if (!options.hosts_file.empty()) {
        // Multi-machine: expand the host list into per-shard ssh
        // templates that run the remote command and fetch the shard
        // checkpoint home before the merge.
        if (options.remote_cmd.empty())
            badUsage("--hosts requires --remote-cmd (the command to "
                     "run on each host)");
        if (!options.command.empty())
            badUsage("--hosts and --cmd are mutually exclusive");
        if (options.stall_kill > 0.0)
            badUsage("--stall-kill watches the LOCAL checkpoint, "
                     "which a --hosts shard only writes when it "
                     "fetches results back at the end — the watch "
                     "would kill every healthy remote run; drop one "
                     "of the two flags");
        std::ifstream hosts_stream(options.hosts_file);
        if (!hosts_stream)
            sim::fatal("corona-launch: cannot read hosts file \"" +
                       options.hosts_file + "\"");
        const auto hosts = campaign::parseHostsFile(hosts_stream);
        campaign::HostTemplateOptions host_options;
        host_options.remote_command = options.remote_cmd;
        host_options.remote_dir = options.remote_dir;
        host_options.rsh = options.rsh;
        host_options.fetch = options.fetch;
        launch.commands = campaign::hostCommandTemplates(
            hosts, options.shards, host_options);
        std::cerr << "corona-launch: " << options.shards
                  << " shards over " << hosts.size()
                  << " host(s) from " << options.hosts_file << "\n";
    }

    std::string command = options.command;
    if (command.empty() && launch.commands.empty()) {
        command = campaign::localWorkerCommand(
            options.self, options.scenario, options.quiet);
        // Local workers share this machine: split the cores across
        // the process pool unless the user pinned CORONA_JOBS. The
        // variable is prefixed onto the worker command (scoped to the
        // children) — setenv here would also throttle the un-sharded
        // in-process --verify run.
        if (!core::env::isSet("CORONA_JOBS")) {
            const unsigned hw = std::thread::hardware_concurrency();
            const std::size_t cores = hw > 0 ? hw : 1;
            const std::size_t pool = std::min(
                launch.max_parallel > 0 ? launch.max_parallel : cores,
                options.shards);
            const std::size_t per_worker =
                std::max<std::size_t>(1, cores / pool);
            command = "CORONA_JOBS=" + std::to_string(per_worker) +
                      " " + command;
        }
    }
    launch.command = command;

    std::cerr << "corona-launch: campaign \"" << spec.name << "\" ("
              << spec.totalRuns() << " runs at " << spec.base.requests
              << " requests) over " << options.shards
              << " shard processes\n";

    const campaign::LaunchReport report =
        campaign::launchShards(launch);

    // Merge whatever exists — a poisoned shard's completed rows are
    // still worth keeping — and persist the merged checkpoint.
    const std::vector<std::string> paths = report.checkpointPaths();
    std::vector<campaign::RunRecord> merged;
    if (!paths.empty())
        merged = campaign::mergeCheckpointFiles(paths, spec);
    const std::string merged_path =
        options.merged.empty()
            ? (std::filesystem::path(options.dir) / "merged.ckpt")
                  .string()
            : options.merged;
    {
        std::ofstream stream(merged_path, std::ios::trunc);
        if (!stream)
            sim::fatal("corona-launch: cannot write merged "
                       "checkpoint \"" +
                       merged_path + "\"");
        campaign::rewriteCheckpoint(stream, spec, merged);
    }
    std::cerr << "corona-launch: merged " << merged.size() << " of "
              << spec.totalRuns() << " runs from " << paths.size()
              << " shard checkpoint(s) into " << merged_path << "\n";

    // Merge the per-shard rollup files the workers wrote, exactly like
    // the checkpoints above: whatever exists is folded into one
    // campaign-level rollup.csv (a poisoned shard's completed rows are
    // still worth aggregating). A single whole shard writes rollup.csv
    // itself; nothing to merge then.
    if (scenario.observability.rollup &&
        !scenario.observability.dir.empty()) {
        const std::filesystem::path obs_dir(scenario.observability.dir);
        std::vector<std::string> shard_rollups;
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(obs_dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.size() > 11 && name.rfind("rollup-", 0) == 0 &&
                name.compare(name.size() - 4, 4, ".csv") == 0)
                shard_rollups.push_back(entry.path().string());
        }
        std::sort(shard_rollups.begin(), shard_rollups.end());
        if (!shard_rollups.empty()) {
            campaign::ObsRollup rollup;
            for (const std::string &path : shard_rollups)
                rollup.merge(campaign::readRollupFile(path));
            const std::string rollup_path =
                (obs_dir / "rollup.csv").string();
            campaign::writeRollupFile(rollup_path, rollup);
            std::cerr << "corona-launch: merged "
                      << shard_rollups.size()
                      << " shard rollup(s) into " << rollup_path
                      << "\n";
        }
    }

    if (!report.allOk()) {
        std::cerr << "corona-launch: FAILED shards:";
        for (const std::size_t shard : report.poisonedShards())
            std::cerr << " " << shard << "/" << options.shards;
        std::cerr << " — completed work is merged in " << merged_path
                  << "; re-run the same command to resume\n";
        return 1;
    }
    if (merged.size() != spec.totalRuns()) {
        // Every worker exited 0 yet runs are missing — typically a
        // --cmd template that ran remotely but never copied the shard
        // checkpoint back to {checkpoint}. Replaying now would
        // quietly re-simulate the holes in-process and pass the
        // result off as distributed output; refuse instead.
        std::cerr << "corona-launch: workers succeeded but only "
                  << merged.size() << " of " << spec.totalRuns()
                  << " runs reached the shard checkpoints — does your "
                     "--cmd template write (or copy back to) "
                     "{checkpoint}?\n";
        return 1;
    }

    // Replay the full merged record set through the ordinary sinks:
    // byte-identical to an uninterrupted un-sharded run, written to
    // the scenario's own [execution] sink paths.
    RenderedSinks rendered = renderRecords(spec, merged);
    const campaign::ScenarioExecution &exec = scenario.execution;
    writeOutput(exec.csv, rendered.csv, "CSV");
    writeOutput(exec.jsonl, rendered.jsonl, "JSONL");
    writeOutput(exec.summary, rendered.summary, "summary CSV");

    if (options.verify) {
        std::cerr << "corona-launch: verifying against an un-sharded "
                     "in-process run...\n";
        campaign::CampaignRunner reference;
        campaign::MemorySink memory;
        reference.addSink(memory);
        reference.run(spec);
        const RenderedSinks expected =
            renderRecords(spec, memory.records());
        if (expected.csv != rendered.csv ||
            expected.jsonl != rendered.jsonl ||
            expected.summary != rendered.summary) {
            std::cerr << "corona-launch: VERIFY FAILED — merged sink "
                         "bytes differ from the un-sharded run\n";
            return 3;
        }
        std::cerr << "corona-launch: verify OK — merged CSV/JSONL/"
                     "summary bytes match the un-sharded run\n";
    }

    std::cerr << "corona-launch: done;";
    for (const campaign::ShardOutcome &shard : report.shards)
        std::cerr << " shard " << shard.shard.label() << ": "
                  << shard.rows << " rows in " << shard.attempts
                  << (shard.attempts == 1 ? " attempt;" : " attempts;");
    std::cerr << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = parseArgs(argc, argv);
    options.self = argv[0];
    try {
        return launchMain(options);
    } catch (const std::exception &e) {
        std::cerr << "corona-launch: " << e.what() << "\n";
        return 1;
    }
}
