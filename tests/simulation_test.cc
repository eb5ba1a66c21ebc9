/**
 * @file
 * Focused tests for the NetworkSimulation driver: request-budget
 * semantics, conservation across every configuration, thread-window
 * and MSHR back-pressure interplay, and metric consistency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "corona/context.hh"
#include "corona/exec_plan.hh"
#include "corona/simulation.hh"
#include "obs/registry.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;
using core::MemoryKind;
using core::NetworkKind;
using core::RunMetrics;
using core::SimParams;
using core::SystemConfig;

TEST(Simulation, IssuesExactlyTheBudget)
{
    for (const std::uint64_t budget : {100ull, 1357ull, 5000ull}) {
        auto workload = workload::registryFactory("Uniform")();
        SimParams params;
        params.requests = budget;
        const auto metrics = core::runExperiment(
            core::makeConfig(NetworkKind::XBar, MemoryKind::OCM),
            *workload, params);
        EXPECT_EQ(metrics.requests_issued, budget);
    }
}

TEST(Simulation, RunTwiceIsRejected)
{
    auto workload = workload::registryFactory("Uniform")();
    core::SimContext ctx(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM));
    core::NetworkSimulation simulation(ctx, *workload);
    (void)simulation.run();
    EXPECT_THROW((void)simulation.run(), corona::sim::FatalError);
}

TEST(Simulation, ThreadMismatchIsFatal)
{
    workload::SyntheticParams params;
    params.threads_per_cluster = 4; // 256 threads, system wants 1024.
    workload::SyntheticWorkload workload(workload::Pattern::Uniform,
                                         topology::Geometry(), params);
    core::SimContext ctx(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM));
    EXPECT_THROW(core::NetworkSimulation(ctx, workload), sim::FatalError);
}

TEST(Simulation, TinyMshrFileStillCompletes)
{
    auto config = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    config.mshrs_per_cluster = 2;
    config.thread_window = 4;
    auto workload = workload::registryFactory("Uniform")();
    SimParams params;
    params.requests = 2000;
    const auto metrics = core::runExperiment(config, *workload, params);
    EXPECT_EQ(metrics.requests_issued, 2000u);
    EXPECT_GT(metrics.mshr_full_stalls, 0u)
        << "a 2-entry MSHR file must visibly stall 16 threads";
}

/**
 * Check every CSV column of @p m that has a registry counterpart
 * against @p system's probes, read after the run. Sums and maxima
 * fold per-component paths: every numeric segment becomes a star.
 */
void
expectCsvMatchesProbes(const RunMetrics &m, core::CoronaSystem &system,
                       bool miss_stream)
{
    obs::Registry registry;
    system.instrument(registry);
    std::map<std::string, double> sum;
    std::map<std::string, double> max;
    double wait_total = 0.0, wait_count = 0.0, channel_count = 0.0;
    for (const obs::Probe &probe : registry.probes()) {
        std::string key;
        std::istringstream segments(probe.path);
        for (std::string segment; std::getline(segments, segment, '/');) {
            const bool index = segment.find_first_not_of("0123456789") ==
                               std::string::npos;
            key += (key.empty() ? "" : "/") + (index ? "*" : segment);
        }
        const double value = probe.read();
        sum[key] += value;
        max[key] = std::max(max[key], value);
        // The count-weighted mean over channels, as meanTokenWait forms
        // it: count precedes mean in each channel's wait stats.
        if (key == "xbar/ch/*/token/wait/count") {
            channel_count = value;
            wait_count += value;
        } else if (key == "xbar/ch/*/token/wait/mean") {
            wait_total += value * channel_count;
        }
    }
    // Misses really went through the hubs, so no identity below can
    // pass as 0 == 0.
    EXPECT_GT(sum.at("hub/*/network_requests") +
                  sum.at("hub/*/local_requests"),
              0.0);
    EXPECT_EQ(static_cast<double>(m.requests_coalesced),
              sum.at("hub/*/mshr/coalesced"));
    EXPECT_EQ(static_cast<double>(m.mshr_full_stalls),
              sum.at("hub/*/mshr/full_stalls"));
    EXPECT_EQ(static_cast<double>(m.peak_mc_queue),
              max.at("mc/*/peak_queue"));
    EXPECT_EQ(static_cast<double>(m.hop_traversals), sum.at("net/hops"));
    EXPECT_DOUBLE_EQ(m.achieved_bytes_per_second,
                     sum.at("mc/*/bytes") / sim::ticksToSeconds(m.elapsed));
    if (system.config().network == NetworkKind::XBar) {
        EXPECT_DOUBLE_EQ(m.token_wait_ns,
                         (wait_count > 0 ? wait_total / wait_count : 0.0) /
                             static_cast<double>(sim::oneNanosecond));
    }
    if (miss_stream) {
        EXPECT_EQ(static_cast<double>(m.requests_issued),
                  sum.at("mc/*/accesses"));
    }
}

TEST(Simulation, CsvColumnsMatchRegistryProbes)
{
    // The CSV and the registry must tell one story in every execution
    // mode: fresh and pooled (second-lease) contexts, the classic
    // engine and 1 or 4 shards. Warm-up 0, so both count the whole run.
    const auto xbar = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    const auto hmesh =
        core::makeConfig(NetworkKind::HMesh, MemoryKind::ECM);
    auto coherent = xbar;
    coherent.frontend = core::FrontendKind::Coherent;
    const struct
    {
        SystemConfig config;
        const char *workload;
        unsigned sim_threads;
        bool coalesces;
    } cases[] = {
        {xbar, "Raytrace", 0, true},
        {xbar, "Uniform", 0, false},
        {xbar, "Uniform", 1, false},
        {xbar, "Uniform", 4, false},
        {hmesh, "Uniform", 0, false},
        {hmesh, "Uniform", 1, false},
        {hmesh, "Uniform", 4, false},
        {coherent, "Migratory", 0, false},
    };
    SimParams params;
    params.requests = 3000;
    params.warmup_requests = 0;
    for (const auto &c : cases) {
        params.sim_threads = c.sim_threads;
        const bool miss_stream =
            c.config.frontend == core::FrontendKind::MissStream;
        const auto make = workload::registryFactory(c.workload);
        auto fresh_workload = make();
        SCOPED_TRACE(fresh_workload->name() + " on " + c.config.name() +
                     " at sim_threads " + std::to_string(c.sim_threads));
        const unsigned effective = core::effectiveSimThreads(
            c.sim_threads, c.config, *fresh_workload, 0, false);
        EXPECT_EQ(effective, c.sim_threads); // No serial fallback.
        core::SimContext fresh_ctx(c.config, effective);
        core::NetworkSimulation fresh(fresh_ctx, *fresh_workload, params);
        const RunMetrics m = fresh.run();
        EXPECT_EQ(m.requests_coalesced > 0, c.coalesces);
        expectCsvMatchesProbes(m, fresh.system(), miss_stream);

        // A pooled context on its second lease: reset, not rebuilt.
        core::SystemPool pool;
        auto first = make();
        core::runExperiment(pool.lease(c.config, effective), *first,
                            params);
        auto second = make();
        core::SimContext &ctx = pool.lease(c.config, effective);
        const RunMetrics pooled = core::runExperiment(ctx, *second, params);
        ASSERT_EQ(pool.reuses(), 1u);
        expectCsvMatchesProbes(pooled, ctx.system(), miss_stream);
    }
}

TEST(Simulation, WindowOfOneSerializesEachThread)
{
    auto config = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    config.thread_window = 1;
    auto narrow_wl = workload::registryFactory("Uniform")();
    SimParams params;
    params.requests = 4000;
    const auto narrow = core::runExperiment(config, *narrow_wl, params);

    auto wide_config = core::makeConfig(NetworkKind::XBar,
                                        MemoryKind::OCM);
    auto wide_wl = workload::registryFactory("Uniform")();
    const auto wide = core::runExperiment(wide_config, *wide_wl, params);
    EXPECT_LT(narrow.achieved_bytes_per_second,
              wide.achieved_bytes_per_second)
        << "memory-level parallelism must buy bandwidth";
}

TEST(Simulation, MetricsSelfConsistent)
{
    auto workload = workload::registryFactory("Tornado")();
    SimParams params;
    params.requests = 3000;
    const auto m = core::runExperiment(
        core::makeConfig(NetworkKind::HMesh, MemoryKind::OCM), *workload,
        params);
    // Bandwidth = lines moved / time, lines >= issued requests.
    const double implied_lines =
        m.achieved_bytes_per_second * sim::ticksToSeconds(m.elapsed) /
        64.0;
    EXPECT_GE(implied_lines + 0.5,
              static_cast<double>(m.requests_issued));
    EXPECT_GT(m.p95_latency_ns, m.avg_latency_ns * 0.5);
    EXPECT_GT(m.hop_traversals, m.requests_issued)
        << "mesh transactions average > 1 hop";
}

TEST(Simulation, SpeedupRequiresEqualWork)
{
    RunMetrics a, b;
    a.elapsed = 100;
    a.requests_issued = 10;
    b.elapsed = 200;
    b.requests_issued = 20;
    EXPECT_THROW((void)a.speedupOver(b), std::invalid_argument);
    b.requests_issued = 10;
    EXPECT_DOUBLE_EQ(a.speedupOver(b), 2.0);
    RunMetrics zero;
    zero.requests_issued = 10;
    EXPECT_THROW((void)zero.speedupOver(b), std::invalid_argument);
}

TEST(Simulation, WarmupExcludedFromMeasurement)
{
    auto cold_wl = workload::registryFactory("Uniform")();
    SimParams cold;
    cold.requests = 3000;
    const auto cold_m = core::runExperiment(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *cold_wl,
        cold);

    auto warm_wl = workload::registryFactory("Uniform")();
    SimParams warm;
    warm.requests = 3000;
    warm.warmup_requests = 2000;
    const auto warm_m = core::runExperiment(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *warm_wl,
        warm);

    // Both report the same measured request count...
    EXPECT_EQ(cold_m.requests_issued, warm_m.requests_issued);
    // ...but the warmed run measures steady state: its bandwidth must
    // be at least the cold-start-diluted figure.
    EXPECT_GE(warm_m.achieved_bytes_per_second,
              cold_m.achieved_bytes_per_second * 0.95);
    EXPECT_LT(warm_m.elapsed, cold_m.elapsed + cold_m.elapsed / 2);
}

// -------------------------------------------------------------------
// Property sweep: conservation and sanity on every configuration.
// -------------------------------------------------------------------

struct ConfigCase
{
    NetworkKind network;
    MemoryKind memory;
};

class EveryConfig : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(EveryConfig, ConservesRequestsAndProducesSaneMetrics)
{
    const auto param = GetParam();
    auto workload = workload::registryFactory("FMM")();
    SimParams params;
    params.requests = 2500;
    const auto m = core::runExperiment(
        core::makeConfig(param.network, param.memory), *workload, params);
    EXPECT_EQ(m.requests_issued, 2500u);
    EXPECT_GT(m.elapsed, 0u);
    // Latency at least the raw memory access, at most 100 us.
    EXPECT_GT(m.avg_latency_ns, 20.0);
    EXPECT_LT(m.avg_latency_ns, 100'000.0);
    // Achieved bandwidth below the memory system's ceiling.
    const double ceiling =
        param.memory == MemoryKind::OCM ? 10.24e12 : 0.96e12;
    EXPECT_LE(m.achieved_bytes_per_second, ceiling * 1.05);
    EXPECT_GE(m.network_power_w, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EveryConfig,
    ::testing::Values(ConfigCase{NetworkKind::XBar, MemoryKind::OCM},
                      ConfigCase{NetworkKind::HMesh, MemoryKind::OCM},
                      ConfigCase{NetworkKind::LMesh, MemoryKind::OCM},
                      ConfigCase{NetworkKind::HMesh, MemoryKind::ECM},
                      ConfigCase{NetworkKind::LMesh, MemoryKind::ECM},
                      ConfigCase{NetworkKind::Ideal, MemoryKind::OCM}));

// Seeds sweep: different seeds complete and stay in a sane band.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, StatisticallyStableAcrossSeeds)
{
    auto workload = workload::registryFactory("Uniform")();
    SimParams params;
    params.requests = 3000;
    params.seed = GetParam();
    const auto m = core::runExperiment(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *workload,
        params);
    EXPECT_EQ(m.requests_issued, 3000u);
    // Saturated uniform traffic: TB/s-class regardless of seed (short
    // runs are warm-up-dominated, so the bound is conservative).
    EXPECT_GT(m.achieved_bytes_per_second, 1.0e12);
    EXPECT_LT(m.avg_latency_ns, 500.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 12345u));

} // namespace
