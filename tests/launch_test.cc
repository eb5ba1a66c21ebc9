/**
 * @file
 * Tests for the shard launcher: command-template expansion,
 * retry/backoff bookkeeping, checkpoint-file merging (torn tails and
 * foreign fingerprints included), shard poisoning after the retry
 * cap, and an end-to-end launch in which this very binary re-execs
 * itself as the worker, one shard crashes mid-checkpoint-write, the
 * launcher retries it, and the merged record set replays through the
 * ordinary sinks byte-identically to an uninterrupted un-sharded run.
 *
 * The worker mode is selected by the CORONA_LAUNCH_TEST_WORKER
 * environment variable (see main() at the bottom): the launcher
 * exports CORONA_SHARD / CORONA_CHECKPOINT, and the crashing attempt
 * is armed by CORONA_LAUNCH_TEST_CRASH naming the shard to kill once.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/checkpoint.hh"
#include "campaign/launch.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "sim/logging.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

/** This test binary's own path, for self-exec worker templates. */
std::string g_self;

/** The grid the launcher tests distribute: small but real, and
 * identical in the test process and every worker process. */
campaign::CampaignSpec
launchTestSpec()
{
    campaign::CampaignSpec spec;
    spec.name = "launch-test";
    spec.campaign_seed = 7;
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"FFT", false, [] { return workload::makeSplash("FFT"); }},
    };
    spec.configs = {
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        core::makeConfig(core::NetworkKind::HMesh,
                         core::MemoryKind::OCM),
    };
    spec.seeds = {0, 1};
    spec.base.requests = 200;
    return spec;
}

std::string
makeTempDir()
{
    std::string pattern = "/tmp/corona-launch-test-XXXXXX";
    if (!::mkdtemp(pattern.data()))
        sim::fatal("mkdtemp failed");
    return pattern;
}

/** CSV + JSONL + summary bytes of @p records replayed through the
 * ordinary sinks (runs with holes would execute in-process). */
std::string
renderAllSinks(const campaign::CampaignSpec &spec,
               std::vector<campaign::RunRecord> records)
{
    std::ostringstream csv_os, jsonl_os, summary_os;
    campaign::CsvSink csv(csv_os);
    campaign::JsonLinesSink jsonl(jsonl_os);
    campaign::SummarySink summary(&summary_os);
    campaign::CampaignRunner runner({.threads = 1});
    runner.addSink(csv);
    runner.addSink(jsonl);
    runner.addSink(summary);
    runner.run(spec, std::move(records));
    return csv_os.str() + "\x1e" + jsonl_os.str() + "\x1e" +
           summary_os.str();
}

TEST(LaunchTemplate, ExpandsEveryPlaceholder)
{
    const campaign::ShardSpec shard{2, 8}; // 0-based index 2 = "3/8".
    EXPECT_EQ(campaign::expandCommandTemplate(
                  "run --shard {shard}/{shards} --label {label} "
                  "--out {checkpoint} --shard {shard}",
                  shard, "/tmp/s3.ckpt"),
              "run --shard 3/8 --label 3/8 --out /tmp/s3.ckpt "
              "--shard 3");
    // No placeholders: the template passes through verbatim (workers
    // read the exported CORONA_SHARD / CORONA_CHECKPOINT instead).
    EXPECT_EQ(campaign::expandCommandTemplate(
                  "build/corona-run scenarios/fig9.scenario", shard,
                  "x.ckpt"),
              "build/corona-run scenarios/fig9.scenario");
    // Template building blocks quote safely for `sh -c`.
    EXPECT_EQ(campaign::shellQuote("plain/path"), "'plain/path'");
    EXPECT_EQ(campaign::shellQuote("it's"), "'it'\\''s'");
}

TEST(LaunchTemplate, LocalWorkerIsTheCoronaRunBesideTheLauncher)
{
    const std::string dir = makeTempDir();
    // No corona-run beside the launcher: fatal before any shard runs.
    EXPECT_THROW(campaign::localWorkerCommand(dir + "/corona-launch",
                                              "a.scenario", false),
                 sim::FatalError);
    std::ofstream(dir + "/corona-run").put('\n');
    EXPECT_EQ(campaign::localWorkerCommand(dir + "/corona-launch",
                                           "my run.scenario", true),
              "'" + dir + "/corona-run' --no-table --quiet "
                          "'my run.scenario'");
    // A launcher found on PATH finds its worker the same way.
    EXPECT_EQ(campaign::localWorkerCommand("corona-launch", "a.scenario",
                                           false),
              "'corona-run' --no-table 'a.scenario'");
    std::filesystem::remove_all(dir);
}

TEST(LaunchRetry, BacksOffGeometricallyUntilPoisoned)
{
    campaign::RetrySchedule schedule(2, 0.5, 2.0, 30.0);
    EXPECT_FALSE(schedule.poisoned());
    EXPECT_EQ(schedule.recordFailure(), std::optional<double>(0.5));
    EXPECT_EQ(schedule.recordFailure(), std::optional<double>(1.0));
    // Third failure exhausts the two retries: poisoned, no delay.
    EXPECT_EQ(schedule.recordFailure(), std::nullopt);
    EXPECT_TRUE(schedule.poisoned());
    EXPECT_EQ(schedule.failures(), 3u);
}

TEST(LaunchRetry, DelayIsCappedAtTheMaximum)
{
    const campaign::RetrySchedule schedule(10, 0.5, 2.0, 4.0);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(1), 0.5);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(2), 1.0);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(3), 2.0);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(4), 4.0);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(5), 4.0);
    EXPECT_DOUBLE_EQ(schedule.delayAfter(50), 4.0);
}

TEST(LaunchMerge, MergesShardFilesDroppingTornTails)
{
    const auto spec = launchTestSpec();
    const std::string dir = makeTempDir();

    // Shard files written independently by real runs.
    const auto writeShard = [&](std::size_t index, std::size_t count,
                                const std::string &path,
                                bool tear_tail) {
        std::ostringstream stream;
        campaign::CheckpointWriter checkpoint(stream, true);
        campaign::CampaignRunner runner(
            {.threads = 1,
             .shard = campaign::ShardSpec{index, count}});
        runner.addSink(checkpoint);
        runner.run(spec);
        std::string bytes = stream.str();
        if (tear_tail)
            bytes += "5,torn-row-from-a-crash"; // No newline.
        std::ofstream file(path, std::ios::trunc);
        file << bytes;
    };
    const std::string a = dir + "/a.ckpt", b = dir + "/b.ckpt";
    writeShard(0, 2, a, false);
    writeShard(1, 2, b, true);

    const auto merged = campaign::mergeCheckpointFiles({b, a}, spec);
    ASSERT_EQ(merged.size(), spec.totalRuns());
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(merged[i].index, i);

    // Same records as an uninterrupted run, byte for byte.
    campaign::MemorySink memory;
    campaign::CampaignRunner runner({.threads = 1});
    runner.addSink(memory);
    runner.run(spec);
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(campaign::csvRow(merged[i]),
                  campaign::csvRow(memory.records()[i]));

    // A file from a different campaign refuses to merge.
    auto other = launchTestSpec();
    other.campaign_seed = 4242;
    EXPECT_THROW(campaign::mergeCheckpointFiles({a, b}, other),
                 sim::FatalError);
    // A missing file is fatal, not silently skipped.
    EXPECT_THROW(
        campaign::mergeCheckpointFiles({dir + "/nope.ckpt"}, spec),
        sim::FatalError);
    std::filesystem::remove_all(dir);
}

TEST(LaunchHosts, ParsesHostsFilesStrictly)
{
    std::istringstream hosts("# cluster machines\n"
                             "fast-box 4\n"
                             "\n"
                             "user@slow-box   # default one slot\n"
                             "other 2\n");
    const auto parsed = campaign::parseHostsFile(hosts);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].host, "fast-box");
    EXPECT_EQ(parsed[0].slots, 4u);
    EXPECT_EQ(parsed[1].host, "user@slow-box");
    EXPECT_EQ(parsed[1].slots, 1u);
    EXPECT_EQ(parsed[2].host, "other");
    EXPECT_EQ(parsed[2].slots, 2u);

    std::istringstream empty("# nothing\n\n");
    EXPECT_THROW(campaign::parseHostsFile(empty), sim::FatalError);
    std::istringstream bad("box zero-slots\n");
    EXPECT_THROW(campaign::parseHostsFile(bad), sim::FatalError);
}

TEST(LaunchHosts, ExpandsPerShardSshTemplates)
{
    const std::vector<campaign::HostSpec> hosts = {{"a", 2}, {"b", 1}};
    campaign::HostTemplateOptions options;
    options.remote_command = "corona-run --no-table fig9.scenario";
    options.remote_dir = "rdir";
    const auto templates =
        campaign::hostCommandTemplates(hosts, 4, options);
    ASSERT_EQ(templates.size(), 4u);
    // Slots expand to (a, a, b) per round; shard 4 wraps back to a.
    EXPECT_EQ(templates[0],
              "ssh a 'mkdir -p '\\''rdir'\\'' && export "
              "CORONA_SHARD={label} "
              "CORONA_CHECKPOINT='\\''rdir/shard{shard}.ckpt'\\'' && "
              "corona-run --no-table fig9.scenario' && scp "
              "'a:rdir/shard{shard}.ckpt' {checkpoint}");
    EXPECT_NE(templates[1].find("ssh a "), std::string::npos);
    EXPECT_NE(templates[2].find("ssh b "), std::string::npos);
    EXPECT_NE(templates[3].find("ssh a "), std::string::npos);

    // The per-shard expansion the launcher applies fills the
    // placeholders inside the quoted remote command too.
    const std::string expanded = campaign::expandCommandTemplate(
        templates[2], campaign::ShardSpec{2, 4}, "local/s3.ckpt");
    EXPECT_NE(expanded.find("CORONA_SHARD=3/4"), std::string::npos);
    EXPECT_NE(expanded.find("rdir/shard3.ckpt"), std::string::npos);
    EXPECT_NE(expanded.find("'b:rdir/shard3.ckpt' local/s3.ckpt"),
              std::string::npos);
}

TEST(LaunchHosts, EndToEndThroughAFakeRemoteShell)
{
    // Two "hosts" that are really this machine: the rsh stub drops
    // its host argument and runs the command locally; the fetch stub
    // copies "host:path" with cp. Proves the full --hosts pipeline
    // (remote env exported, checkpoint fetch-back, merge) with zero
    // network dependencies.
    const auto spec = launchTestSpec();
    const std::string dir = makeTempDir();
    const std::string rsh = dir + "/fake-ssh";
    const std::string fetch = dir + "/fake-scp";
    {
        std::ofstream script(rsh);
        script << "#!/bin/sh\nshift\nexec sh -c \"$1\"\n";
    }
    {
        std::ofstream script(fetch);
        script << "#!/bin/sh\ncp \"${1#*:}\" \"$2\"\n";
    }
    std::filesystem::permissions(
        rsh, std::filesystem::perms::owner_all);
    std::filesystem::permissions(
        fetch, std::filesystem::perms::owner_all);

    campaign::HostTemplateOptions host_options;
    host_options.remote_command = "CORONA_LAUNCH_TEST_WORKER=1 " +
                                  campaign::shellQuote(g_self);
    host_options.remote_dir = dir + "/remote{shard}";
    host_options.rsh = rsh;
    host_options.fetch = fetch;

    campaign::LaunchOptions options;
    options.shard_count = 2;
    options.max_parallel = 2;
    options.checkpoint_dir = dir;
    options.commands = campaign::hostCommandTemplates(
        {{"hostA", 1}, {"hostB", 1}}, options.shard_count,
        host_options);
    options.backoff_initial_seconds = 0.01;
    options.poll_seconds = 0.01;

    const auto report = campaign::launchShards(options);
    ASSERT_TRUE(report.allOk());
    // The fetched checkpoints merge into the full grid: remote runs
    // really came home.
    const auto merged =
        campaign::mergeCheckpointFiles(report.checkpointPaths(), spec);
    EXPECT_EQ(merged.size(), spec.totalRuns());
    std::filesystem::remove_all(dir);
}

TEST(Launcher, KillsAndRelaunchesAHungWorker)
{
    // The worker checkpoints a partial file and then hangs forever;
    // the liveness watch must SIGKILL it and relaunch, and once the
    // retry budget is exhausted, poison the shard — a hang can no
    // longer stall a campaign indefinitely.
    const std::string dir = makeTempDir();
    campaign::LaunchOptions options;
    options.shard_count = 1;
    options.command = "printf 'partial' > {checkpoint}; exec sleep 600";
    options.checkpoint_dir = dir;
    options.max_retries = 1;
    options.backoff_initial_seconds = 0.01;
    options.poll_seconds = 0.01;
    options.stall_kill_seconds = 0.25;
    std::ostringstream log;
    options.log = &log;

    const auto started = std::chrono::steady_clock::now();
    const auto report = campaign::launchShards(options);
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started)
            .count();

    ASSERT_EQ(report.shards.size(), 1u);
    const auto &shard = report.shards[0];
    EXPECT_TRUE(shard.poisoned);
    EXPECT_EQ(shard.attempts, 2u); // Killed, relaunched, killed.
    EXPECT_EQ(shard.stall_kills, 2u);
    EXPECT_EQ(shard.exit_code, 128 + 9); // SIGKILL.
    EXPECT_NE(log.str().find("killing hung worker"),
              std::string::npos);
    // Both attempts were reaped by the deadline, not by sleep(600).
    EXPECT_LT(elapsed, 30.0);
    std::filesystem::remove_all(dir);
}

TEST(Launcher, StallKillSparesWorkersThatMakeProgress)
{
    // A worker that keeps appending rows slower than the kill
    // deadline per row — but always making progress — must never be
    // reaped.
    const std::string dir = makeTempDir();
    campaign::LaunchOptions options;
    options.shard_count = 1;
    options.command =
        "for i in 1 2 3 4 5 6; do printf 'row%d\\n' $i >> "
        "{checkpoint}; sleep 0.1; done";
    options.checkpoint_dir = dir;
    options.max_retries = 0;
    options.poll_seconds = 0.01;
    options.stall_kill_seconds = 0.4;

    const auto report = campaign::launchShards(options);
    ASSERT_EQ(report.shards.size(), 1u);
    EXPECT_TRUE(report.shards[0].ok);
    EXPECT_EQ(report.shards[0].attempts, 1u);
    EXPECT_EQ(report.shards[0].stall_kills, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Launcher, PoisonsAShardOnceRetriesAreExhausted)
{
    const std::string dir = makeTempDir();
    campaign::LaunchOptions options;
    options.shard_count = 2;
    options.max_parallel = 2;
    options.command = "exit 7";
    options.checkpoint_dir = dir;
    options.max_retries = 1;
    options.backoff_initial_seconds = 0.01;
    options.poll_seconds = 0.005;

    const auto report = campaign::launchShards(options);
    EXPECT_FALSE(report.allOk());
    ASSERT_EQ(report.shards.size(), 2u);
    for (const auto &shard : report.shards) {
        EXPECT_TRUE(shard.poisoned);
        EXPECT_FALSE(shard.ok);
        EXPECT_EQ(shard.attempts, 2u); // First try + one retry.
        EXPECT_EQ(shard.exit_code, 7);
    }
    EXPECT_EQ(report.poisonedShards(),
              (std::vector<std::size_t>{1, 2}));
    EXPECT_TRUE(report.checkpointPaths().empty());
    std::filesystem::remove_all(dir);
}

TEST(Launcher, EndToEndCrashRetryMergeIsByteIdentical)
{
    const auto spec = launchTestSpec();
    const std::string dir = makeTempDir();

    campaign::LaunchOptions options;
    options.shard_count = 2;
    options.max_parallel = 2;
    options.checkpoint_dir = dir;
    options.max_retries = 2;
    options.backoff_initial_seconds = 0.01;
    options.backoff_multiplier = 2.0;
    options.poll_seconds = 0.01;
    // Shard 2's first worker crashes after checkpointing one run,
    // leaving torn trailing bytes; the relaunch must resume the file.
    options.command = "CORONA_LAUNCH_TEST_WORKER=1 "
                      "CORONA_LAUNCH_TEST_CRASH=2 " +
                      campaign::shellQuote(g_self);
    std::ostringstream log;
    options.log = &log;

    const auto report = campaign::launchShards(options);
    ASSERT_TRUE(report.allOk()) << log.str();
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].attempts, 1u);
    EXPECT_EQ(report.shards[1].attempts, 2u) << log.str();
    EXPECT_FALSE(report.shards[1].poisoned);
    EXPECT_NE(log.str().find("retrying in"), std::string::npos);

    // Merge the per-shard files and replay through every sink: the
    // bytes must match a serial un-sharded run exactly.
    const auto merged =
        campaign::mergeCheckpointFiles(report.checkpointPaths(), spec);
    ASSERT_EQ(merged.size(), spec.totalRuns());

    campaign::MemorySink memory;
    campaign::CampaignRunner reference({.threads = 1});
    reference.addSink(memory);
    reference.run(spec);

    EXPECT_EQ(renderAllSinks(spec, merged),
              renderAllSinks(spec, memory.records()));
    std::filesystem::remove_all(dir);
}

/** Worker-process entry: run one shard of launchTestSpec() against
 * the launcher-provided CORONA_SHARD / CORONA_CHECKPOINT, optionally
 * crashing once mid-checkpoint-write. Exit codes are diagnostic. */
int
launchTestWorkerMain()
{
    const char *shard_env = std::getenv("CORONA_SHARD");
    const char *checkpoint_env = std::getenv("CORONA_CHECKPOINT");
    if (!shard_env || !checkpoint_env)
        return 64;
    const auto shard = campaign::parseShardSpec(shard_env);
    if (!shard)
        return 64;

    /** Dies after the first freshly appended row: torn bytes plus a
     * non-zero exit, like a worker OOM-killed mid-write. */
    struct CrashOnceSink : campaign::ResultSink
    {
        std::ofstream &checkpoint;
        std::string marker;

        CrashOnceSink(std::ofstream &checkpoint_, std::string marker_)
            : checkpoint(checkpoint_), marker(std::move(marker_))
        {
        }

        void consume(const campaign::RunRecord &) override
        {
            std::ofstream mark(marker);
            mark << "crashed\n";
            checkpoint << "5,torn"; // No newline.
            checkpoint.flush();
            std::_Exit(9);
        }
    };

    try {
        const auto spec = launchTestSpec();
        campaign::CheckpointFile checkpoint(checkpoint_env, spec);
        campaign::RunnerOptions options;
        options.threads = 1;
        options.shard = *shard;
        campaign::CampaignRunner runner(options);
        runner.addSink(checkpoint.sink());

        std::optional<CrashOnceSink> crash;
        if (const char *inject =
                std::getenv("CORONA_LAUNCH_TEST_CRASH")) {
            const std::string marker =
                std::string(checkpoint_env) + ".crashed";
            if (std::to_string(shard->index + 1) == inject &&
                !std::filesystem::exists(marker)) {
                crash.emplace(checkpoint.stream(), marker);
                runner.addSink(*crash);
            }
        }

        runner.run(spec, checkpoint.takeCompleted());
        checkpoint.checkWritten();
    } catch (const std::exception &) {
        return 65;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (std::getenv("CORONA_LAUNCH_TEST_WORKER"))
        return launchTestWorkerMain();
    g_self = argv[0];
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
