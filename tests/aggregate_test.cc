/**
 * @file
 * Tests for replicate aggregation: per-cell mean / sample stddev /
 * 95 % CI against hand-computed values, Student's t critical points,
 * failed-run exclusion, duplicate detection, the summary CSV shape,
 * and an end-to-end campaign with seed replicates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "campaign/aggregate.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace {

using namespace corona;

/** 1 workload x 1 config x 3 seed replicates. */
campaign::CampaignSpec
cellSpec()
{
    campaign::CampaignSpec spec;
    spec.name = "aggregate-test";
    spec.workloads = {{"Uniform", true, workload::registryFactory("Uniform")}};
    spec.configs = {core::makeConfig(core::NetworkKind::XBar,
                                     core::MemoryKind::OCM)};
    spec.seeds = {0, 1, 2};
    return spec;
}

campaign::RunRecord
replicate(std::size_t seed_index, double latency, bool ok = true)
{
    campaign::RunRecord record;
    record.index = seed_index;
    record.seed_index = seed_index;
    record.workload = "Uniform";
    record.config = "XBar/OCM";
    record.ok = ok;
    record.metrics.avg_latency_ns = latency;
    record.metrics.p95_latency_ns = 2.0 * latency;
    record.metrics.achieved_bytes_per_second = 100.0 + latency;
    return record;
}

TEST(TCritical95, MatchesTheStandardTable)
{
    EXPECT_NEAR(campaign::tCritical95(1), 12.706, 1e-9);
    EXPECT_NEAR(campaign::tCritical95(2), 4.303, 1e-9);
    EXPECT_NEAR(campaign::tCritical95(10), 2.228, 1e-9);
    EXPECT_NEAR(campaign::tCritical95(30), 2.042, 1e-9);
    EXPECT_NEAR(campaign::tCritical95(31), 1.96, 1e-9);
    EXPECT_NEAR(campaign::tCritical95(10'000), 1.96, 1e-9);
}

TEST(SummarySink, ComputesMeanStddevAndCi)
{
    const auto spec = cellSpec();
    campaign::SummarySink sink;
    sink.begin(spec, spec.totalRuns());
    sink.consume(replicate(0, 10.0));
    sink.consume(replicate(1, 20.0));
    sink.consume(replicate(2, 30.0));
    sink.end();

    ASSERT_EQ(sink.summaries().size(), 1u);
    const campaign::CellSummary &cell = sink.summaries()[0];
    EXPECT_EQ(cell.replicates, 3u);
    EXPECT_EQ(cell.failed, 0u);
    EXPECT_EQ(cell.workload, "Uniform");

    using campaign::SummaryMetric;
    const auto &latency = cell.metric(SummaryMetric::AvgLatencyNs);
    // Hand-computed: mean 20, sample stddev 10,
    // CI = t(2) * 10 / sqrt(3) = 4.303 * 5.7735... = 24.843.
    EXPECT_NEAR(latency.mean, 20.0, 1e-12);
    EXPECT_NEAR(latency.stddev, 10.0, 1e-12);
    EXPECT_NEAR(latency.ci95, 4.303 * 10.0 / std::sqrt(3.0), 1e-9);
    EXPECT_EQ(latency.min, 10.0);
    EXPECT_EQ(latency.max, 30.0);
    // Derived metrics flow through the same pipeline.
    EXPECT_NEAR(cell.metric(SummaryMetric::P95LatencyNs).mean, 40.0,
                1e-12);
    EXPECT_NEAR(
        cell.metric(SummaryMetric::AchievedBytesPerSecond).mean, 120.0,
        1e-12);
}

TEST(SummarySink, SingleReplicateHasZeroSpread)
{
    auto spec = cellSpec();
    spec.seeds = {0};
    campaign::SummarySink sink;
    sink.begin(spec, spec.totalRuns());
    sink.consume(replicate(0, 42.0));
    sink.end();

    const auto &latency =
        sink.summaries()[0].metric(campaign::SummaryMetric::AvgLatencyNs);
    EXPECT_NEAR(latency.mean, 42.0, 1e-12);
    EXPECT_EQ(latency.stddev, 0.0);
    EXPECT_EQ(latency.ci95, 0.0);
    EXPECT_EQ(latency.min, 42.0);
    EXPECT_EQ(latency.max, 42.0);
}

TEST(SummarySink, ExcludesFailedRunsFromTheStatistics)
{
    const auto spec = cellSpec();
    campaign::SummarySink sink;
    sink.begin(spec, spec.totalRuns());
    sink.consume(replicate(0, 10.0));
    sink.consume(replicate(1, 0.0, /*ok=*/false));
    sink.consume(replicate(2, 30.0));
    sink.end();

    const campaign::CellSummary &cell = sink.summaries()[0];
    EXPECT_EQ(cell.replicates, 2u);
    EXPECT_EQ(cell.failed, 1u);
    EXPECT_NEAR(cell.metric(campaign::SummaryMetric::AvgLatencyNs).mean,
                20.0, 1e-12);
}

TEST(SummarySink, PanicsOnDuplicateOrOutOfGridRecords)
{
    const auto spec = cellSpec();
    campaign::SummarySink sink;
    sink.begin(spec, spec.totalRuns());
    sink.consume(replicate(0, 10.0));
    EXPECT_THROW(sink.consume(replicate(0, 11.0)), sim::PanicError);

    campaign::SummarySink fresh;
    fresh.begin(spec, spec.totalRuns());
    EXPECT_THROW(fresh.consume(replicate(7, 10.0)), sim::PanicError);
}

TEST(SummarySink, WritesOneCsvRowPerCell)
{
    const auto spec = cellSpec();
    std::ostringstream csv;
    campaign::SummarySink sink(&csv);
    sink.begin(spec, spec.totalRuns());
    sink.consume(replicate(0, 10.0));
    sink.consume(replicate(1, 20.0));
    sink.consume(replicate(2, 30.0));
    sink.end();

    std::istringstream lines(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, campaign::SummarySink::header());
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("Uniform,XBar/OCM,,3,0,20,10,", 0), 0u)
        << "row was: " << line;
    // The latency min/max columns follow the ci95 column.
    EXPECT_NE(line.find(",10,30,"), std::string::npos)
        << "row was: " << line;
    EXPECT_FALSE(std::getline(lines, line)); // Exactly one cell.
}

TEST(SummarySink, AggregatesARealCampaignOverSeeds)
{
    auto spec = cellSpec();
    spec.base.requests = 300;
    campaign::SummarySink sink;
    campaign::CampaignRunner runner({.threads = 3});
    runner.addSink(sink);
    runner.run(spec);

    ASSERT_EQ(sink.summaries().size(), 1u);
    const campaign::CellSummary &cell = sink.summaries()[0];
    EXPECT_EQ(cell.replicates, 3u);
    EXPECT_EQ(cell.failed, 0u);
    const auto &latency =
        cell.metric(campaign::SummaryMetric::AvgLatencyNs);
    EXPECT_GT(latency.mean, 0.0);
    // Independent seeds: replicates differ, so the CI is non-trivial.
    EXPECT_GT(latency.ci95, 0.0);
    EXPECT_GE(latency.ci95, latency.stddev); // t(2)/sqrt(3) > 1.
}

} // namespace
