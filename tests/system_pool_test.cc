/**
 * @file
 * Tests for reusable simulation contexts: SimContext reset parity with
 * fresh construction, SystemPool lease semantics, and the campaign
 * runner's byte-parity contract — a pooled multi-cell grid must
 * produce the same CSV sink bytes and checkpoint fingerprint
 * rows as a pool-less one, at any worker count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/context.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

core::SimParams
tinyParams(std::uint64_t requests = 400, std::uint64_t seed = 11)
{
    core::SimParams params;
    params.requests = requests;
    params.seed = seed;
    return params;
}

/** Full metric equality, including the tick-exact fields. */
void
expectSameMetrics(const core::RunMetrics &a, const core::RunMetrics &b)
{
    EXPECT_EQ(a.requests_issued, b.requests_issued);
    EXPECT_EQ(a.requests_coalesced, b.requests_coalesced);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.hop_traversals, b.hop_traversals);
    EXPECT_EQ(a.mshr_full_stalls, b.mshr_full_stalls);
    EXPECT_EQ(a.peak_mc_queue, b.peak_mc_queue);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_DOUBLE_EQ(a.achieved_bytes_per_second,
                     b.achieved_bytes_per_second);
    EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
    EXPECT_DOUBLE_EQ(a.p95_latency_ns, b.p95_latency_ns);
    EXPECT_DOUBLE_EQ(a.token_wait_ns, b.token_wait_ns);
}

TEST(SimContext, ResetRunIsBitIdenticalToAFreshSystem)
{
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);

    // Fresh system per run.
    auto w1 = workload::makeUniform();
    const auto fresh = core::runExperiment(config, *w1, tinyParams());

    // One context, dirtied by a different run first, then reset.
    core::SimContext ctx(config);
    auto dirty = workload::makeSplash("FFT");
    core::runExperiment(ctx, *dirty, tinyParams(300, 3));
    ctx.reset();
    auto w2 = workload::makeUniform();
    const auto reused = core::runExperiment(ctx, *w2, tinyParams());

    expectSameMetrics(fresh, reused);
}

TEST(SimContext, ResetRunMatchesOnAMeshSystemToo)
{
    const auto config = core::makeConfig(core::NetworkKind::HMesh,
                                         core::MemoryKind::ECM);
    auto w1 = workload::makeUniform();
    const auto fresh = core::runExperiment(config, *w1, tinyParams());

    core::SimContext ctx(config);
    auto dirty = workload::makeUniform();
    core::runExperiment(ctx, *dirty, tinyParams(250, 99));
    ctx.reset();
    auto w2 = workload::makeUniform();
    const auto reused = core::runExperiment(ctx, *w2, tinyParams());

    expectSameMetrics(fresh, reused);
}

TEST(SimContext, LeasedConstructorRejectsADirtyContext)
{
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    core::SimContext ctx(config);
    ctx.eq().schedule(10, [] {});
    auto workload = workload::makeUniform();
    EXPECT_THROW(core::NetworkSimulation(ctx, *workload, tinyParams()),
                 sim::FatalError);
}

TEST(SystemPool, LeasesAreCachedPerConfiguration)
{
    core::SystemPool pool;
    const auto xbar =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    const auto mesh = core::makeConfig(core::NetworkKind::LMesh,
                                       core::MemoryKind::ECM);

    core::SimContext &a = pool.lease(xbar);
    core::SimContext &b = pool.lease(mesh);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.reuses(), 0u);

    core::SimContext &c = pool.lease(xbar);
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.reuses(), 1u);
}

TEST(SystemPool, KnobbedVariantsOfOneKindDoNotAlias)
{
    core::SystemPool pool;
    auto base =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    auto scaled = base;
    scaled.memory_bandwidth_scale = 2.0;
    core::SimContext &a = pool.lease(base);
    core::SimContext &b = pool.lease(scaled);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(pool.size(), 2u);
}

TEST(SystemPool, MeshParameterTweaksDoNotAlias)
{
    // Mesh parameters are not scenario knobs, so the pool key covers
    // them explicitly: a programmatically tweaked MeshParams must get
    // its own context.
    core::SystemPool pool;
    auto base = core::makeConfig(core::NetworkKind::HMesh,
                                 core::MemoryKind::ECM);
    auto tweaked = base;
    tweaked.mesh.link_efficiency = 0.5;
    core::SimContext &a = pool.lease(base);
    core::SimContext &b = pool.lease(tweaked);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(pool.size(), 2u);
}

TEST(SystemPool, EvictsLeastRecentlyUsedPastTheCap)
{
    core::SystemPool pool;
    std::vector<core::SystemConfig> configs;
    for (std::size_t i = 0; i <= core::SystemPool::maxContexts; ++i) {
        auto config = core::makeConfig(core::NetworkKind::XBar,
                                       core::MemoryKind::OCM);
        config.label = "variant-" + std::to_string(i);
        configs.push_back(config);
    }
    for (std::size_t i = 0; i < core::SystemPool::maxContexts; ++i)
        pool.lease(configs[i]);
    EXPECT_EQ(pool.size(), core::SystemPool::maxContexts);

    // Touch config 0 so config 1 becomes the LRU victim.
    pool.lease(configs[0]);
    pool.lease(configs[core::SystemPool::maxContexts]); // Evicts 1.
    EXPECT_EQ(pool.size(), core::SystemPool::maxContexts);

    // Config 0 is still resident (a reuse); config 1 was evicted and
    // rebuilds (not a reuse).
    const std::uint64_t reuses_before = pool.reuses();
    pool.lease(configs[0]);
    EXPECT_EQ(pool.reuses(), reuses_before + 1);
    pool.lease(configs[1]);
    EXPECT_EQ(pool.reuses(), reuses_before + 1);
}

// ---------------------------------------------------------------------
// Campaign-level byte parity.

campaign::CampaignSpec
gridSpec()
{
    campaign::CampaignSpec spec;
    spec.name = "pool-parity";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"FFT", false, [] { return workload::makeSplash("FFT"); }},
    };
    spec.configs = {
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        core::makeConfig(core::NetworkKind::LMesh,
                         core::MemoryKind::ECM),
    };
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

/** The grid's CSV sink bytes. */
std::string
runGrid(bool reuse_systems, std::size_t threads)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    campaign::RunnerOptions options;
    options.threads = threads;
    options.reuse_systems = reuse_systems;
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(gridSpec());
    return csv.str();
}

TEST(SystemPoolParity, SinkBytesMatchPoolingOnAndOffAcrossThreadCounts)
{
    const std::string fresh_serial = runGrid(false, 1);
    EXPECT_EQ(fresh_serial, runGrid(true, 1));
    EXPECT_EQ(fresh_serial, runGrid(true, 4));
}

std::string
runGridToCheckpoint(bool reuse_systems, const std::string &path)
{
    const auto spec = gridSpec();
    std::remove(path.c_str());
    {
        campaign::CheckpointFile checkpoint(path, spec);
        campaign::RunnerOptions options;
        options.threads = 2;
        options.reuse_systems = reuse_systems;
        campaign::CampaignRunner runner(options);
        runner.addSink(checkpoint.sink());
        runner.run(spec);
        checkpoint.checkWritten();
    }
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
}

TEST(SystemPoolParity, CheckpointFingerprintsAndRowsMatch)
{
    const std::string dir = ::testing::TempDir();
    const std::string fresh =
        runGridToCheckpoint(false, dir + "/pool_off.ckpt");
    const std::string pooled =
        runGridToCheckpoint(true, dir + "/pool_on.ckpt");
    EXPECT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, pooled);
}

} // namespace
