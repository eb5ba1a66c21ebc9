/**
 * @file
 * Tests for reusable simulation contexts: SimContext reset parity with
 * fresh construction, SystemPool lease semantics (a context per
 * distinct configuration, compared field by field), and the campaign
 * runner's byte-parity contract — the runner's pooled multi-cell grid
 * must produce the same CSV sink bytes and checkpoint fingerprint rows
 * as every cell run on a fresh context, at any worker count.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/context.hh"
#include "corona/knobs.hh"
#include "corona/simulation.hh"
#include "fresh_runs.hh"
#include "sim/logging.hh"
#include "test_dir.hh"
#include "workload/registry.hh"

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
    auto w1 = workload::registryFactory("Uniform")();
    const auto fresh = core::runExperiment(config, *w1, tinyParams());

    // One context, dirtied by a different run first, then reset.
    core::SimContext ctx(config);
    auto dirty = workload::registryFactory("FFT")();
    core::runExperiment(ctx, *dirty, tinyParams(300, 3));
    ctx.reset();
    auto w2 = workload::registryFactory("Uniform")();
    const auto reused = core::runExperiment(ctx, *w2, tinyParams());

    expectSameMetrics(fresh, reused);
}

TEST(SimContext, ResetRunMatchesOnAMeshSystemToo)
{
    const auto config = core::makeConfig(core::NetworkKind::HMesh,
                                         core::MemoryKind::ECM);
    auto w1 = workload::registryFactory("Uniform")();
    const auto fresh = core::runExperiment(config, *w1, tinyParams());

    core::SimContext ctx(config);
    auto dirty = workload::registryFactory("Uniform")();
    core::runExperiment(ctx, *dirty, tinyParams(250, 99));
    ctx.reset();
    auto w2 = workload::registryFactory("Uniform")();
    const auto reused = core::runExperiment(ctx, *w2, tinyParams());

    expectSameMetrics(fresh, reused);
}

TEST(SimContext, LeasedConstructorRejectsADirtyContext)
{
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    core::SimContext ctx(config);
    ctx.eq().schedule(10, [] {});
    auto workload = workload::registryFactory("Uniform")();
    EXPECT_THROW(core::NetworkSimulation(ctx, *workload, tinyParams()),
                 sim::FatalError);
}

/** The FatalError message @p fn throws ("" when it returns). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(SimContext, ShardedContextRefusesARunThatCannotPartition)
{
    // effectiveSimThreads() plans warm-up and SPLASH runs serial, so a
    // context built with two shards is the wrong size for them.
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    const std::string refusal =
        "NetworkSimulation: the context runs 2 shards, but "
        "effectiveSimThreads() gives this run 0";

    core::SimContext warm_ctx(config, 2);
    auto uniform = workload::registryFactory("Uniform")();
    core::SimParams warm = tinyParams();
    warm.warmup_requests = 100;
    EXPECT_NE(fatalMessage([&] {
                  core::NetworkSimulation sim(warm_ctx, *uniform, warm);
              }).find(refusal),
              std::string::npos);

    core::SimContext splash_ctx(config, 2);
    auto fft = workload::registryFactory("FFT")();
    EXPECT_NE(fatalMessage([&] {
                  core::NetworkSimulation sim(splash_ctx, *fft, tinyParams());
              }).find(refusal),
              std::string::npos);

    // A coherent config never reaches the simulation: the system
    // refuses to build its front end on a sharded context.
    auto coherent = config;
    coherent.frontend = core::FrontendKind::Coherent;
    EXPECT_NE(fatalMessage([&] { core::SimContext ctx(coherent, 2); })
                  .find("CoronaSystem: the coherent front end"),
              std::string::npos);
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
    // Mesh parameters are not scenario knobs, but they are config
    // fields: a programmatically tweaked MeshParams gets its own
    // context.
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

TEST(SystemPool, ConfigsDifferingInTheSeventhDecimalDoNotAlias)
{
    // A six-decimal rendering of the config reads 0.800000 for both.
    core::SystemPool pool;
    const auto base = core::makeConfig(core::NetworkKind::HMesh,
                                       core::MemoryKind::ECM);
    ASSERT_EQ(base.mesh.link_efficiency, 0.8);
    auto nudged = base;
    nudged.mesh.link_efficiency = 0.8000001;
    core::SimContext &a = pool.lease(base);
    core::SimContext &b = pool.lease(nudged);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(a.config().mesh.link_efficiency, 0.8);
    EXPECT_EQ(b.config().mesh.link_efficiency, 0.8000001);
}

TEST(SystemPool, EveryConfigKnobRowChangesTheConfig)
{
    // A value other than XBar/OCM's default for every config knob.
    const std::map<std::string, std::string> changed = {
        {"clusters", "16"},
        {"threads_per_cluster", "8"},
        {"mshrs_per_cluster", "64"},
        {"thread_window", "6"},
        {"local_hop", "400"},
        {"memory_bandwidth_scale", "2"},
        {"bytes_per_clock", "32"},
        {"sink_buffer_depth", "8"},
        {"loop_clocks", "4"},
        {"max_batch", "4"},
        {"token_node_pause", "200"},
        {"frontend", "coherent"},
        {"l1_kib", "16"},
        {"l1_assoc", "2"},
        {"l2_kib", "128"},
        {"l2_assoc", "8"},
        {"cache_line", "128"},
        {"write_policy", "writethrough"},
        {"inval_policy", "unicast"},
        {"broadcast_threshold", "3"},
        {"label", "variant"},
    };
    const std::span<const core::Knob<core::SystemConfig>> rows =
        core::configKnobs();
    EXPECT_EQ(changed.size(), rows.size());
    const auto base =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    // @p config with row @p r set to its changed value.
    const auto knobbed = [&](core::SystemConfig config, std::size_t r) {
        const auto value = changed.find(rows[r].key);
        if (value == changed.end())
            ADD_FAILURE() << "no non-default value for knob " << rows[r].key;
        else
            core::applyConfigKnob(config, rows[r].key, value->second);
        return config;
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::SystemConfig one = knobbed(base, i);
        EXPECT_NE(one, base) << rows[i].key;
        for (std::size_t j = 0; j < rows.size(); ++j) {
            if (j == i)
                continue;
            EXPECT_NE(one, knobbed(base, j))
                << rows[i].key << " and " << rows[j].key;
            // Row j leaves row i's field alone.
            EXPECT_NE(knobbed(one, j), knobbed(base, j))
                << rows[i].key << " and " << rows[j].key;
        }
    }
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
        {"Uniform", true, workload::registryFactory("Uniform")},
        {"FFT", false, workload::registryFactory("FFT")},
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

/** The grid's CSV sink bytes from the runner. */
std::string
runGrid(std::size_t threads)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    campaign::RunnerOptions options;
    options.threads = threads;
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(gridSpec());
    return csv.str();
}

TEST(SystemPoolParity, PooledSinkBytesMatchFreshContextsAcrossThreadCounts)
{
    const std::string fresh = test::freshCsv(gridSpec());
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, runGrid(1));
    EXPECT_EQ(fresh, runGrid(4));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(SystemPoolParity, CheckpointFingerprintsAndRowsMatch)
{
    const test::TestDir dir;
    const auto spec = gridSpec();
    {
        campaign::CheckpointFile checkpoint(dir.file("fresh.ckpt"), spec);
        test::writeFreshRecords(spec, checkpoint.sink());
        checkpoint.checkWritten();
    }
    {
        campaign::CheckpointFile checkpoint(dir.file("pooled.ckpt"), spec);
        campaign::RunnerOptions options;
        options.threads = 2;
        campaign::CampaignRunner runner(options);
        runner.addSink(checkpoint.sink());
        runner.run(spec);
        checkpoint.checkWritten();
    }
    const std::string fresh = slurp(dir.file("fresh.ckpt"));
    EXPECT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, slurp(dir.file("pooled.ckpt")));
}

} // namespace
