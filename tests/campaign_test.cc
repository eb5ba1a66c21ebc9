/**
 * @file
 * Tests for the campaign engine: grid expansion order and seed
 * derivation, thread-count-invariant determinism of both metrics and
 * serialized sink output, parity with the historical serial sweep loop,
 * structured sink formats, failure isolation, and strict count
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "campaign/progress.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

/** A small but real grid: 2 workloads x 2 configs, full 1024-thread
 * systems with a request budget low enough for fast tests. */
campaign::CampaignSpec
smallSpec(std::uint64_t requests = 500)
{
    campaign::CampaignSpec spec;
    spec.name = "test";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"FFT", false, [] { return workload::makeSplash("FFT"); }},
    };
    spec.configs = {
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        core::makeConfig(core::NetworkKind::LMesh,
                         core::MemoryKind::ECM),
    };
    spec.base.requests = requests;
    return spec;
}

std::string
runToCsv(const campaign::CampaignSpec &spec, std::size_t threads)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    campaign::RunnerOptions options;
    options.threads = threads;
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(spec);
    return csv.str();
}

TEST(CampaignSpec, ExpandsTheFullGridInSerialLoopOrder)
{
    auto spec = smallSpec();
    spec.seeds = {0, 7};
    spec.overrides = {
        {"cold", nullptr},
        {"warm", [](core::SimParams &p) { p.warmup_requests = 100; }},
    };
    EXPECT_EQ(spec.totalRuns(), 2u * 2u * 2u * 2u);

    const auto plans = campaign::expand(spec);
    ASSERT_EQ(plans.size(), 16u);
    // Workload-major, then config, seed, override — the seed repo's
    // nested-loop order.
    EXPECT_EQ(plans[0].workload, "Uniform");
    EXPECT_EQ(plans[0].config, "XBar/OCM");
    EXPECT_EQ(plans[0].override_label, "cold");
    EXPECT_EQ(plans[1].override_label, "warm");
    EXPECT_EQ(plans[1].params.warmup_requests, 100u);
    EXPECT_EQ(plans[2].seed_salt, 7u);
    EXPECT_EQ(plans[4].config, "LMesh/ECM");
    EXPECT_EQ(plans[8].workload, "FFT");
    for (std::size_t i = 0; i < plans.size(); ++i)
        EXPECT_EQ(plans[i].index, i);
}

TEST(CampaignSpec, EmptyAxesAreNormalised)
{
    const auto spec = smallSpec();
    EXPECT_EQ(spec.totalRuns(), 4u);
    const auto plans = campaign::expand(spec);
    ASSERT_EQ(plans.size(), 4u);
    EXPECT_EQ(plans[0].seed_salt, 0u);
    EXPECT_EQ(plans[0].override_label, "");
}

TEST(CampaignSpec, RejectsDegenerateGrids)
{
    campaign::CampaignSpec no_workloads;
    no_workloads.configs = core::paperConfigs();
    EXPECT_THROW(campaign::expand(no_workloads), sim::FatalError);

    campaign::CampaignSpec no_configs;
    no_configs.workloads = {{"Uniform", true, workload::makeUniform}};
    EXPECT_THROW(campaign::expand(no_configs), sim::FatalError);

    auto null_factory = smallSpec();
    null_factory.workloads[0].make = nullptr;
    EXPECT_THROW(campaign::expand(null_factory), sim::FatalError);
}

TEST(CampaignSpec, RejectsARunBudgetThatOverflows)
{
    // warmup_requests + requests must fit 64 bits, or the run would
    // stop before its measurement starts.
    auto spec = smallSpec(2000);
    spec.overrides = {
        {"base", nullptr},
        {"huge",
         [](core::SimParams &p) {
             p.warmup_requests = 18446744073709550616ull;
         }},
    };
    try {
        campaign::expand(spec);
        ADD_FAILURE() << "an overflowing budget expanded";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        for (const char *part : {"campaign \"test\"", "override \"huge\"",
                                 "warmup_requests 18446744073709550616",
                                 "requests 2000"})
            EXPECT_NE(what.find(part), std::string::npos) << what;
    }
    // The runner expands first, so no cell runs and no sink hears of
    // the campaign.
    campaign::MemorySink sink;
    campaign::CampaignRunner runner;
    runner.addSink(sink);
    EXPECT_THROW(runner.run(spec), sim::FatalError);
    EXPECT_TRUE(sink.records().empty());

    // The largest budget that fits is accepted.
    spec.overrides[1].apply = [](core::SimParams &p) {
        p.warmup_requests = 18446744073709549615ull; // 2^64 - 1 - 2000
    };
    EXPECT_EQ(campaign::expand(spec).size(), 8u);
}

TEST(CampaignSpec, DerivedSeedsAreSplitmixOfCampaignSeedAndIndex)
{
    auto spec = smallSpec();
    spec.campaign_seed = 99;
    spec.seed_policy = campaign::SeedPolicy::Derived;
    const auto plans = campaign::expand(spec);
    for (const auto &plan : plans) {
        EXPECT_EQ(plan.params.seed,
                  campaign::deriveRunSeed(99, plan.seed_salt,
                                          plan.index));
    }
    // Distinct indices get distinct, well-mixed seeds.
    EXPECT_NE(plans[0].params.seed, plans[1].params.seed);
    // And the derivation matches the documented construction.
    const std::uint64_t stream =
        sim::splitmix64(99) ^ sim::splitmix64(0);
    EXPECT_EQ(campaign::deriveRunSeed(99, 0, 0),
              sim::splitmix64(stream));
}

TEST(CampaignSpec, FixedPolicyKeepsTheBaseSeedEverywhere)
{
    auto spec = smallSpec();
    spec.base.seed = 42;
    spec.seed_policy = campaign::SeedPolicy::Fixed;
    for (const auto &plan : campaign::expand(spec))
        EXPECT_EQ(plan.params.seed, 42u);
}

TEST(CampaignRunner, MetricsAreIdenticalForOneAndManyThreads)
{
    auto spec = smallSpec();
    spec.seed_policy = campaign::SeedPolicy::Derived;

    campaign::MemorySink serial_sink;
    campaign::CampaignRunner serial({.threads = 1});
    serial.addSink(serial_sink);
    serial.run(spec);

    campaign::MemorySink parallel_sink;
    campaign::CampaignRunner parallel({.threads = 4});
    parallel.addSink(parallel_sink);
    parallel.run(spec);

    const auto &a = serial_sink.records();
    const auto &b = parallel_sink.records();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].seed, b[i].seed);
        const auto &ma = a[i].metrics;
        const auto &mb = b[i].metrics;
        EXPECT_EQ(ma.requests_issued, mb.requests_issued);
        EXPECT_EQ(ma.requests_coalesced, mb.requests_coalesced);
        EXPECT_EQ(ma.elapsed, mb.elapsed);
        EXPECT_EQ(ma.hop_traversals, mb.hop_traversals);
        EXPECT_EQ(ma.mshr_full_stalls, mb.mshr_full_stalls);
        EXPECT_EQ(ma.peak_mc_queue, mb.peak_mc_queue);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(ma.achieved_bytes_per_second,
                  mb.achieved_bytes_per_second);
        EXPECT_EQ(ma.avg_latency_ns, mb.avg_latency_ns);
        EXPECT_EQ(ma.p95_latency_ns, mb.p95_latency_ns);
        EXPECT_EQ(ma.network_power_w, mb.network_power_w);
        EXPECT_EQ(ma.token_wait_ns, mb.token_wait_ns);
    }
}

TEST(CampaignRunner, SinkOutputIsByteIdenticalAcrossThreadCounts)
{
    auto spec = smallSpec();
    spec.seeds = {0, 1};
    const std::string one = runToCsv(spec, 1);
    const std::string four = runToCsv(spec, 4);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, four);
}

TEST(CampaignRunner, MatchesTheHistoricalSerialLoop)
{
    // The engine with a Fixed seed policy must reproduce the seed
    // repo's nested for-loop bit for bit — the fig8 parity guarantee.
    auto spec = smallSpec();
    spec.seed_policy = campaign::SeedPolicy::Fixed;
    spec.base.warmup_requests = spec.base.requests / 5;

    campaign::MemorySink sink;
    campaign::CampaignRunner runner({.threads = 3});
    runner.addSink(sink);
    runner.run(spec);
    const auto grid = sink.grid();

    ASSERT_EQ(grid.size(), spec.workloads.size());
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        ASSERT_EQ(grid[w].size(), spec.configs.size());
        for (std::size_t c = 0; c < spec.configs.size(); ++c) {
            auto workload = spec.workloads[w].make();
            const auto serial = core::runExperiment(
                spec.configs[c], *workload, spec.base);
            const auto &engine = grid[w][c];
            EXPECT_EQ(engine.requests_issued, serial.requests_issued);
            EXPECT_EQ(engine.elapsed, serial.elapsed);
            EXPECT_EQ(engine.achieved_bytes_per_second,
                      serial.achieved_bytes_per_second);
            EXPECT_EQ(engine.avg_latency_ns, serial.avg_latency_ns);
            EXPECT_EQ(engine.network_power_w, serial.network_power_w);
            EXPECT_EQ(engine.hop_traversals, serial.hop_traversals);
        }
    }
}

TEST(CampaignRunner, FailedRunsAreIsolatedAndRecorded)
{
    auto spec = smallSpec(200);
    spec.workloads.push_back(
        {"Broken", true,
         []() -> std::unique_ptr<workload::Workload> {
             sim::fatal("deliberately broken factory");
         }});

    campaign::CampaignRunner runner({.threads = 2});
    const auto records = runner.run(spec);
    ASSERT_EQ(records.size(), 6u);

    std::size_t failed = 0;
    for (const auto &record : records) {
        if (record.workload == "Broken") {
            EXPECT_FALSE(record.ok);
            EXPECT_NE(record.error.find("deliberately broken"),
                      std::string::npos);
            ++failed;
        } else {
            EXPECT_TRUE(record.ok);
            EXPECT_EQ(record.metrics.requests_issued, 200u);
        }
    }
    EXPECT_EQ(failed, 2u);
}

TEST(CampaignRunner, SinkExceptionsPropagateInsteadOfTerminating)
{
    // A throwing sink must not escape a worker thread (std::terminate);
    // the runner drains the pool and rethrows on the calling thread.
    struct ThrowingSink : campaign::ResultSink
    {
        void
        consume(const campaign::RunRecord &) override
        {
            throw std::runtime_error("sink exploded");
        }
    };
    auto spec = smallSpec(200);
    ThrowingSink sink;
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(sink);
    EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(CampaignSinks, CsvHasHeaderAndOneRowPerRun)
{
    const std::string csv = runToCsv(smallSpec(200), 2);
    std::istringstream lines(csv);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, campaign::CsvSink::header());
    std::size_t rows = 0;
    std::string first_row;
    while (std::getline(lines, line)) {
        if (rows == 0)
            first_row = line;
        ++rows;
    }
    EXPECT_EQ(rows, 4u);
    EXPECT_EQ(first_row.rfind("0,Uniform,XBar/OCM,", 0), 0u)
        << first_row;
    EXPECT_NE(first_row.find(",ok,"), std::string::npos);
}

TEST(CampaignSinks, MemoryGridRejectsReplicateAxes)
{
    auto spec = smallSpec(200);
    spec.seeds = {0, 1};
    campaign::MemorySink sink;
    campaign::CampaignRunner runner({.threads = 2});
    runner.addSink(sink);
    runner.run(spec);
    EXPECT_EQ(sink.records().size(), 8u);
    EXPECT_THROW(sink.grid(), sim::FatalError);
}

TEST(CampaignProgress, ReportsEveryRunAndAnEta)
{
    auto spec = smallSpec(200);
    std::ostringstream out;
    campaign::ProgressReporter progress(out);
    campaign::RunnerOptions options;
    options.threads = 2;
    options.progress = &progress;
    campaign::CampaignRunner runner(options);
    runner.run(spec);

    const std::string text = out.str();
    EXPECT_NE(text.find("campaign \"test\": 4 runs on 2 worker"),
              std::string::npos);
    EXPECT_NE(text.find("[4/4]"), std::string::npos);
    EXPECT_NE(text.find("ETA"), std::string::npos);
    EXPECT_NE(text.find("campaign finished: 4 runs"),
              std::string::npos);
}

TEST(CampaignProgress, FormatSecondsRollsMinutesIntoHours)
{
    using campaign::formatSeconds;
    EXPECT_EQ(formatSeconds(5.0), "5.00 s");
    EXPECT_EQ(formatSeconds(45.0), "45.0 s");
    EXPECT_EQ(formatSeconds(600.0), "10 min");
    EXPECT_EQ(formatSeconds(7199.0), "120 min");
    // A 10-hour ETA used to print "600 min".
    EXPECT_EQ(formatSeconds(36000.0), "10 h 0 min");
    EXPECT_EQ(formatSeconds(9000.0), "2 h 30 min");
    EXPECT_EQ(formatSeconds(7200.0), "2 h 0 min");
    // Minute rounding must not print "1 h 60 min".
    EXPECT_EQ(formatSeconds(7199.9 + 3600.0), "3 h 0 min");
}

TEST(CampaignProgress, ResumedCampaignsReportReplayedCounts)
{
    // Execute the full grid once, then resume with half the records:
    // the progress log must surface replayed/total instead of
    // pretending the campaign is two runs long ("[1/2]").
    auto spec = smallSpec(200);
    campaign::MemorySink memory;
    campaign::CampaignRunner plain({.threads = 1});
    plain.addSink(memory);
    plain.run(spec);

    std::vector<campaign::RunRecord> completed = {
        memory.records()[0], memory.records()[1]};
    std::ostringstream out;
    campaign::ProgressReporter progress(out);
    campaign::RunnerOptions options;
    options.threads = 1;
    options.progress = &progress;
    campaign::CampaignRunner resumed(options);
    resumed.run(spec, std::move(completed));

    const std::string text = out.str();
    EXPECT_NE(text.find("4 runs (2 replayed from checkpoint, "
                        "2 pending)"),
              std::string::npos)
        << text;
    // The counter continues from the replayed work...
    EXPECT_NE(text.find("[3/4]"), std::string::npos) << text;
    EXPECT_NE(text.find("[4/4]"), std::string::npos) << text;
    // ...and the final summary separates executed from replayed.
    EXPECT_NE(text.find("campaign finished: 2 runs (+2 replayed)"),
              std::string::npos)
        << text;
}

TEST(RequestBudget, StrictParserAcceptsOnlyPositiveDecimals)
{
    using core::parsePositiveCount;
    EXPECT_EQ(parsePositiveCount("1"), 1u);
    EXPECT_EQ(parsePositiveCount("50000"), 50000u);
    EXPECT_EQ(parsePositiveCount("18446744073709551615"),
              UINT64_MAX);
    EXPECT_FALSE(parsePositiveCount(""));
    EXPECT_FALSE(parsePositiveCount("0"));
    EXPECT_FALSE(parsePositiveCount("-5"));
    EXPECT_FALSE(parsePositiveCount("+5"));
    EXPECT_FALSE(parsePositiveCount(" 5"));
    EXPECT_FALSE(parsePositiveCount("5 "));
    EXPECT_FALSE(parsePositiveCount("5k"));
    EXPECT_FALSE(parsePositiveCount("0x10"));
    EXPECT_FALSE(parsePositiveCount("garbage"));
    // One past UINT64_MAX overflows.
    EXPECT_FALSE(parsePositiveCount("18446744073709551616"));
    EXPECT_FALSE(parsePositiveCount("99999999999999999999999"));
}

} // namespace
