/**
 * @file
 * Tests for campaign checkpoint/resume: spec fingerprinting, row
 * round-trips, torn-line tolerance, fingerprint validation, resume
 * byte-parity with an uninterrupted run, and re-execution of failed
 * runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "sim/logging.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

campaign::CampaignSpec
smallSpec(std::uint64_t requests = 400)
{
    campaign::CampaignSpec spec;
    spec.name = "checkpoint-test";
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
    spec.base.requests = requests;
    return spec;
}

/** Execute @p spec into a checkpoint stream. */
std::string
runToCheckpoint(const campaign::CampaignSpec &spec)
{
    std::ostringstream stream;
    campaign::CheckpointWriter checkpoint(stream,
                                          /*write_header=*/true);
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(checkpoint);
    runner.run(spec);
    return stream.str();
}

/** The header and first @p rows rows of checkpoint @p file: what a
 * session killed after its first @p rows runs leaves behind. */
std::string
keepRows(const std::string &file, std::size_t rows)
{
    std::size_t end = 0;
    for (std::size_t line = 0; line <= rows; ++line)
        end = file.find('\n', end) + 1;
    return file.substr(0, end);
}

TEST(SpecFingerprint, IdentifiesTheCampaign)
{
    const auto spec = smallSpec();
    EXPECT_EQ(campaign::specFingerprint(spec),
              campaign::specFingerprint(smallSpec()));

    auto renamed = smallSpec();
    renamed.name = "other";
    EXPECT_NE(campaign::specFingerprint(spec),
              campaign::specFingerprint(renamed));

    auto reseeded = smallSpec();
    reseeded.campaign_seed = 999;
    EXPECT_NE(campaign::specFingerprint(spec),
              campaign::specFingerprint(reseeded));

    auto more_replicates = smallSpec();
    more_replicates.seeds.push_back(2);
    EXPECT_NE(campaign::specFingerprint(spec),
              campaign::specFingerprint(more_replicates));

    auto different_budget = smallSpec(500);
    EXPECT_NE(campaign::specFingerprint(spec),
              campaign::specFingerprint(different_budget));

    auto fixed_policy = smallSpec();
    fixed_policy.seed_policy = campaign::SeedPolicy::Fixed;
    EXPECT_NE(campaign::specFingerprint(spec),
              campaign::specFingerprint(fixed_policy));
}

TEST(Checkpoint, RoundTripsEveryRecordExactly)
{
    const auto spec = smallSpec();
    const std::string file = runToCheckpoint(spec);

    std::istringstream stream(file);
    const auto loaded = campaign::loadCheckpoint(stream, spec);
    ASSERT_EQ(loaded.size(), spec.totalRuns());

    // Re-run to get reference records; rows must match byte-for-byte
    // (csvRow covers every serialised field, doubles round-trip).
    campaign::MemorySink memory;
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(memory);
    runner.run(spec);
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(campaign::csvRow(loaded[i]),
                  campaign::csvRow(memory.records()[i]));
        // Axis indices are reconstructed from the run index.
        EXPECT_EQ(loaded[i].workload_index,
                  memory.records()[i].workload_index);
        EXPECT_EQ(loaded[i].config_index,
                  memory.records()[i].config_index);
        EXPECT_EQ(loaded[i].seed_index, memory.records()[i].seed_index);
        EXPECT_EQ(loaded[i].override_index,
                  memory.records()[i].override_index);
    }
}

TEST(Checkpoint, DropsATornFinalLine)
{
    const auto spec = smallSpec();
    std::string file = runToCheckpoint(spec);

    // Tear the last row in half, as a killed process would.
    const std::size_t last_newline =
        file.find_last_of('\n', file.size() - 2);
    file.resize(last_newline + 1 + 7); // Header survives; row is torn.

    std::istringstream stream(file);
    const auto data = campaign::readCheckpoint(stream);
    EXPECT_EQ(data.records.size(), spec.totalRuns() - 1);
}

TEST(Checkpoint, CompactionMakesATornFileSafeToAppendTo)
{
    const auto spec = smallSpec();
    std::string file = runToCheckpoint(spec);

    // Tear the last row, keep its surviving sibling rows.
    const std::size_t last_newline =
        file.find_last_of('\n', file.size() - 2);
    const std::string torn = file.substr(0, last_newline + 8);

    // Appending straight onto the torn bytes would fuse two rows into
    // garbage; the resume path compacts first (load -> rewrite), after
    // which appends parse cleanly.
    std::istringstream stream(torn);
    auto completed = campaign::loadCheckpoint(stream, spec);
    std::ostringstream compacted;
    campaign::rewriteCheckpoint(compacted, spec, completed);

    // Simulate the resumed session appending the re-executed row.
    std::ostringstream appended(compacted.str(), std::ios::ate);
    {
        std::unordered_set<std::size_t> persisted;
        for (const auto &record : completed)
            persisted.insert(record.index);
        campaign::CheckpointWriter checkpoint(appended,
                                              /*write_header=*/false,
                                              persisted);
        campaign::CampaignRunner runner({.threads = 2});
        runner.addSink(checkpoint);
        runner.run(spec, std::move(completed));
    }
    std::istringstream merged(appended.str());
    const auto loaded = campaign::loadCheckpoint(merged, spec);
    EXPECT_EQ(loaded.size(), spec.totalRuns());
}

TEST(Checkpoint, NewlinesInFieldsNeverSpanRows)
{
    // An exception message (or axis label) containing newlines must
    // not produce a multi-line quoted field — the line-based reader
    // could never load it back.
    campaign::RunRecord record;
    record.index = 0;
    record.workload = "Uni\nform";
    record.config = "XBar/OCM";
    record.ok = false;
    record.error = "died:\r\n  nested detail";
    const std::string row = campaign::csvRow(record);
    EXPECT_EQ(row.find('\n'), std::string::npos);
    EXPECT_EQ(row.find('\r'), std::string::npos);

    // And the full writer/reader round trip stays loadable.
    auto spec = smallSpec();
    std::ostringstream stream;
    campaign::CheckpointWriter checkpoint(stream,
                                          /*write_header=*/true);
    checkpoint.begin(spec, spec.totalRuns());
    checkpoint.consume(record);
    std::istringstream in(stream.str());
    const auto data = campaign::readCheckpoint(in);
    ASSERT_EQ(data.records.size(), 1u);
    EXPECT_EQ(data.records[0].error, "died:    nested detail");
}

TEST(Checkpoint, NonFiniteMetricsRoundTripThroughTheReader)
{
    // A failed or degenerate run can persist NaN/inf metrics; the
    // row must parse back (std::from_chars accepts the nan/inf
    // spellings std::to_chars emits) instead of poisoning the file.
    campaign::RunRecord record;
    record.index = 1;
    record.workload = "Uniform";
    record.config = "XBar/OCM";
    record.metrics.avg_latency_ns =
        std::numeric_limits<double>::quiet_NaN();
    record.metrics.p95_latency_ns =
        std::numeric_limits<double>::infinity();
    record.metrics.token_wait_ns =
        -std::numeric_limits<double>::infinity();

    const auto spec = smallSpec();
    std::ostringstream stream;
    campaign::CheckpointWriter checkpoint(stream,
                                          /*write_header=*/true);
    checkpoint.begin(spec, spec.totalRuns());
    checkpoint.consume(record);

    std::istringstream in(stream.str());
    const auto data = campaign::readCheckpoint(in);
    ASSERT_EQ(data.records.size(), 1u);
    const auto &m = data.records[0].metrics;
    EXPECT_TRUE(std::isnan(m.avg_latency_ns));
    EXPECT_TRUE(std::isinf(m.p95_latency_ns));
    EXPECT_GT(m.p95_latency_ns, 0.0);
    EXPECT_TRUE(std::isinf(m.token_wait_ns));
    EXPECT_LT(m.token_wait_ns, 0.0);
    // And re-serialising reproduces the exact bytes.
    EXPECT_EQ(campaign::csvRow(data.records[0]),
              campaign::csvRow(record));
}

TEST(Checkpoint, RejectsWrongCampaignAndMalformedInput)
{
    const auto spec = smallSpec();
    const std::string file = runToCheckpoint(spec);

    // A different campaign must refuse the file.
    auto other = smallSpec();
    other.campaign_seed = 4242;
    {
        std::istringstream stream(file);
        EXPECT_THROW(campaign::loadCheckpoint(stream, other),
                     sim::FatalError);
    }
    // Garbage header.
    {
        std::istringstream stream("not a checkpoint\n");
        EXPECT_THROW(campaign::readCheckpoint(stream),
                     sim::FatalError);
    }
    // Well-formed header, garbage row (newline-terminated, not torn).
    const std::string header = file.substr(0, file.find('\n') + 1);
    {
        std::istringstream stream(header + "this,is,not,a,record\n");
        EXPECT_THROW(campaign::readCheckpoint(stream),
                     sim::FatalError);
    }
    // A second header line, even one naming this very campaign, is a
    // malformed row: one file holds one campaign's header, once.
    {
        std::istringstream stream(header + file);
        try {
            campaign::readCheckpoint(stream);
            ADD_FAILURE() << "an interior header line was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Checkpoint, ResumeProducesByteIdenticalSinkOutput)
{
    const auto spec = smallSpec();

    // Uninterrupted reference run.
    std::ostringstream reference;
    {
        campaign::CsvSink csv(reference);
        campaign::CampaignRunner runner({.threads = 2});
        runner.addSink(csv);
        runner.run(spec);
    }

    // Interrupted: only the first half of the runs completed before
    // the "crash".
    const std::string checkpoint =
        keepRows(runToCheckpoint(spec), spec.totalRuns() / 2);

    // Resume from the checkpoint.
    std::istringstream stream(checkpoint);
    auto completed = campaign::loadCheckpoint(stream, spec);
    EXPECT_EQ(completed.size(), spec.totalRuns() / 2);
    std::ostringstream resumed;
    {
        campaign::CsvSink csv(resumed);
        campaign::CampaignRunner runner({.threads = 2});
        runner.addSink(csv);
        runner.run(spec, std::move(completed));
    }
    EXPECT_EQ(reference.str(), resumed.str());
}

TEST(Checkpoint, FailedRunsReExecuteOnResume)
{
    const auto spec = smallSpec();
    const std::string file = runToCheckpoint(spec);
    std::istringstream stream(file);
    auto completed = campaign::loadCheckpoint(stream, spec);

    // Forge run 2 as a failure persisted by a previous session.
    completed[2].ok = false;
    completed[2].error = "injected";
    completed[2].metrics = core::RunMetrics{};

    campaign::MemorySink memory;
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(memory);
    const auto records = runner.run(spec, std::move(completed));
    ASSERT_EQ(records.size(), spec.totalRuns());
    // The failed cell re-executed and now carries real metrics.
    EXPECT_TRUE(records[2].ok);
    EXPECT_GT(records[2].metrics.requests_issued, 0u);
}

TEST(Checkpoint, ResumeRejectsARecordOutsideTheGrid)
{
    const auto spec = smallSpec();
    campaign::RunRecord stray;
    stray.index = spec.totalRuns();
    campaign::CampaignRunner runner({.threads = 1});
    EXPECT_THROW(runner.run(spec, {stray}), sim::FatalError);
}

TEST(Checkpoint, WriterSkipsAlreadyPersistedRows)
{
    const auto spec = smallSpec();
    const std::string first_session =
        keepRows(runToCheckpoint(spec), spec.totalRuns() / 2);

    std::istringstream stream(first_session);
    auto completed = campaign::loadCheckpoint(stream, spec);
    std::unordered_set<std::size_t> persisted;
    for (const auto &record : completed)
        persisted.insert(record.index);

    // Second session appends to the same "file".
    std::ostringstream appended;
    campaign::CheckpointWriter checkpoint(appended,
                                          /*write_header=*/false,
                                          persisted);
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(checkpoint);
    runner.run(spec, std::move(completed));

    // Only the runs missing from session 1 were appended; the merged
    // result loads as the complete campaign.
    std::istringstream merged(first_session + appended.str());
    const auto loaded = campaign::loadCheckpoint(merged, spec);
    EXPECT_EQ(loaded.size(), spec.totalRuns());
    const std::string &tail = appended.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(tail.begin(), tail.end(), '\n')),
              spec.totalRuns() / 2);
}

} // namespace
