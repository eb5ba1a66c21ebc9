/**
 * @file
 * Focused tests for the NetworkSimulation driver: request-budget
 * semantics, conservation across every configuration, thread-window
 * and MSHR back-pressure interplay, and metric consistency.
 */

#include <gtest/gtest.h>

#include <memory>

#include "corona/context.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"
#include "workload/sharing.hh"
#include "workload/splash.hh"
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
        auto workload = workload::makeUniform();
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
    auto workload = workload::makeUniform();
    core::NetworkSimulation simulation(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *workload);
    (void)simulation.run();
    EXPECT_THROW((void)simulation.run(), corona::sim::FatalError);
}

TEST(Simulation, ThreadMismatchIsFatal)
{
    workload::SyntheticParams params;
    params.threads_per_cluster = 4; // 256 threads, system wants 1024.
    workload::SyntheticWorkload workload(workload::Pattern::Uniform,
                                         topology::Geometry(), params);
    EXPECT_THROW(core::NetworkSimulation(
                     core::makeConfig(NetworkKind::XBar, MemoryKind::OCM),
                     workload),
                 sim::FatalError);
}

TEST(Simulation, TinyMshrFileStillCompletes)
{
    auto config = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    config.mshrs_per_cluster = 2;
    config.thread_window = 4;
    auto workload = workload::makeUniform();
    SimParams params;
    params.requests = 2000;
    const auto metrics = core::runExperiment(config, *workload, params);
    EXPECT_EQ(metrics.requests_issued, 2000u);
    EXPECT_GT(metrics.mshr_full_stalls, 0u)
        << "a 2-entry MSHR file must visibly stall 16 threads";
}

TEST(Simulation, MshrCoalescedCountsOnlySecondaryMisses)
{
    // The hubs' MSHR counters and the run's requests_coalesced count
    // the same thing: misses that joined one already in flight. Every
    // primary miss takes an MSHR too, so counting those would show.
    auto miss_stream = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    auto coherent = miss_stream;
    coherent.frontend = core::FrontendKind::Coherent;
    const struct
    {
        SystemConfig config;
        std::unique_ptr<workload::Workload> workload;
        bool coalesces;
    } cases[] = {
        {miss_stream, workload::makeSplash("Raytrace"), true},
        {coherent, workload::makeMigratory(), false},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.workload->name());
        core::SimContext ctx(c.config);
        SimParams params;
        params.requests = 3000;
        const RunMetrics m = core::runExperiment(ctx, *c.workload, params);
        std::uint64_t hub_coalesced = 0;
        std::uint64_t hub_misses = 0;
        for (topology::ClusterId h = 0; h < c.config.clusters; ++h) {
            const core::Hub &hub = ctx.system().hub(h);
            hub_coalesced += hub.mshrs().coalesced();
            hub_misses += hub.networkRequests() + hub.localRequests();
        }
        EXPECT_GT(hub_misses, 0u);
        EXPECT_EQ(m.requests_coalesced > 0, c.coalesces);
        EXPECT_EQ(hub_coalesced, m.requests_coalesced);
    }
}

TEST(Simulation, WindowOfOneSerializesEachThread)
{
    auto config = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    config.thread_window = 1;
    auto narrow_wl = workload::makeUniform();
    SimParams params;
    params.requests = 4000;
    const auto narrow = core::runExperiment(config, *narrow_wl, params);

    auto wide_config = core::makeConfig(NetworkKind::XBar,
                                        MemoryKind::OCM);
    auto wide_wl = workload::makeUniform();
    const auto wide = core::runExperiment(wide_config, *wide_wl, params);
    EXPECT_LT(narrow.achieved_bytes_per_second,
              wide.achieved_bytes_per_second)
        << "memory-level parallelism must buy bandwidth";
}

TEST(Simulation, MetricsSelfConsistent)
{
    auto workload = workload::makeTornado();
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
    auto cold_wl = workload::makeUniform();
    SimParams cold;
    cold.requests = 3000;
    const auto cold_m = core::runExperiment(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *cold_wl,
        cold);

    auto warm_wl = workload::makeUniform();
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
    auto workload = workload::makeSplash("FMM");
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
    auto workload = workload::makeUniform();
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
