/**
 * @file
 * Conservative parallel execution tests (ROADMAP item 3): the
 * execution-planning helpers (lookahead, entity partition, serial
 * fallback), the ShardedExecutor's deterministic staged merge and
 * barrier tick hooks, and — the property everything else exists for —
 * full-system metric invariance across shard counts, fresh and
 * pooled, on both fabric families.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "corona/context.hh"
#include "corona/exec_plan.hh"
#include "corona/simulation.hh"
#include "sim/clock.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "topology/geometry.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;
using core::MemoryKind;
using core::NetworkKind;
using core::RunMetrics;
using core::SimParams;
using core::SystemConfig;
using sim::ShardedExecutor;
using sim::Tick;

// ------------------------------------------------------ exec planning

TEST(ExecPlan, LookaheadIsThePhysicalMinimumLatency)
{
    const Tick period = sim::coronaClock().period();
    EXPECT_EQ(core::lookaheadTicks(
                  core::makeConfig(NetworkKind::XBar, MemoryKind::OCM)),
              period)
        << "optical serialization starts one clock after injection";
    EXPECT_EQ(core::lookaheadTicks(
                  core::makeConfig(NetworkKind::Ideal, MemoryKind::OCM)),
              period);
    auto mesh = core::makeConfig(NetworkKind::HMesh, MemoryKind::ECM);
    EXPECT_EQ(core::lookaheadTicks(mesh),
              mesh.mesh.hop_latency_clocks * period)
        << "a mesh message cannot cross a router in under one hop";
    mesh.mesh.hop_latency_clocks = 0;
    EXPECT_EQ(core::lookaheadTicks(mesh), 0u);
}

TEST(ExecPlan, CrossbarNeedsNoFabricEntity)
{
    const auto xbar = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    EXPECT_EQ(core::executorEntities(xbar), xbar.clusters)
        << "MWSR channels are homed at their destination cluster";
    const auto mesh = core::makeConfig(NetworkKind::HMesh, MemoryKind::ECM);
    EXPECT_EQ(core::executorEntities(mesh), mesh.clusters + 1);
    EXPECT_EQ(core::fabricEntity(mesh), mesh.clusters);
}

TEST(ExecPlan, EntityShardMapIsContiguousAndComplete)
{
    const auto mesh = core::makeConfig(NetworkKind::HMesh, MemoryKind::ECM);
    const auto map = core::entityShardMap(mesh, 4);
    ASSERT_EQ(map.size(), mesh.clusters + 1);
    std::vector<std::size_t> population(4, 0);
    for (std::size_t c = 0; c < mesh.clusters; ++c) {
        EXPECT_LT(map[c], 4u);
        ++population[map[c]];
        if (c > 0) {
            EXPECT_GE(map[c], map[c - 1]) << "clusters stay contiguous";
        }
    }
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(population[k], mesh.clusters / 4)
            << "64 clusters split evenly across 4 shards";
    EXPECT_EQ(map[core::fabricEntity(mesh)], 0u)
        << "the fabric entity rides shard 0";

    EXPECT_THROW(core::entityShardMap(mesh, 0), std::invalid_argument);
    EXPECT_THROW(core::entityShardMap(mesh, mesh.clusters + 1),
                 std::invalid_argument);
}

TEST(ExecPlan, EffectiveSimThreadsFallsBackToSerial)
{
    const auto xbar = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    const auto uniform = workload::makeUniform();

    EXPECT_EQ(core::effectiveSimThreads(0, xbar, *uniform, 0, false), 0u)
        << "0 requested is the classic engine, not 1 shard";
    EXPECT_EQ(core::effectiveSimThreads(4, xbar, *uniform, 0, false), 4u);
    EXPECT_EQ(core::effectiveSimThreads(1024, xbar, *uniform, 0, false),
              xbar.clusters)
        << "shard count clamps to the cluster count";

    // Warm-up sampling cuts the run at a global issue-order boundary.
    EXPECT_EQ(core::effectiveSimThreads(4, xbar, *uniform, 500, false),
              0u);
    // Event tracing: the shared ring's eviction order is not
    // shard-count-invariant.
    EXPECT_EQ(core::effectiveSimThreads(4, xbar, *uniform, 0, true), 0u);

    // The coherent front end carries cross-cluster directory state.
    auto coherent = xbar;
    coherent.frontend = core::FrontendKind::Coherent;
    EXPECT_EQ(core::effectiveSimThreads(4, coherent, *uniform, 0, false),
              0u);

    // SPLASH models draw from one shared trace state: no lane split.
    const auto barnes = workload::makeSplash("Barnes");
    EXPECT_EQ(core::effectiveSimThreads(4, xbar, *barnes, 0, false), 0u);

    // A workload built for a different cluster count must not be
    // sliced by a mapping it never agreed to.
    auto wide = xbar;
    wide.clusters = 256;
    EXPECT_EQ(core::effectiveSimThreads(4, wide, *uniform, 0, false), 0u);

    // Degenerate lookahead (adversarial: a zero-hop-latency mesh)
    // would make windows of width <= 1 — serial fallback instead.
    auto mesh = core::makeConfig(NetworkKind::HMesh, MemoryKind::ECM);
    mesh.mesh.hop_latency_clocks = 0;
    const auto tornado = workload::makeTornado();
    EXPECT_EQ(core::effectiveSimThreads(4, mesh, *tornado, 0, false), 0u);
}

// -------------------------------------------------- sharded executor

TEST(ShardedExecutor, RejectsBadConstruction)
{
    EXPECT_THROW(ShardedExecutor({0, 0}, 0, 10), std::invalid_argument);
    EXPECT_THROW(ShardedExecutor({0, 0}, 2, 0), std::invalid_argument);
    EXPECT_THROW(ShardedExecutor({0, 5}, 2, 10), std::invalid_argument);
}

TEST(ShardedExecutor, PostValidatesEntities)
{
    ShardedExecutor exec({0, 1}, 2, 10);
    EXPECT_THROW(exec.post(0, 7, 100, [] {}), std::out_of_range);
    EXPECT_THROW(exec.post(7, 0, 100, [] {}), std::out_of_range);
}

constexpr std::size_t kEntities = 8;
constexpr Tick kL = 10;

/** A token-passing ring over the executor: entity e logs each visit
 * tick, then forwards to (e+1) one lookahead later. Entity logs are
 * single-writer, so recording them from worker threads is safe. */
struct Ring
{
    ShardedExecutor &exec;
    std::vector<std::vector<Tick>> log{kEntities};

    void
    arrive(std::size_t e, int hops_left)
    {
        const Tick now = exec.queueFor(e).now();
        log[e].push_back(now);
        if (hops_left > 0) {
            const std::size_t next = (e + 1) % kEntities;
            exec.post(e, next, now + kL, [this, next, hops_left] {
                arrive(next, hops_left - 1);
            });
        }
    }
};

std::vector<std::vector<Tick>>
runRing(std::size_t shards, bool force_serial)
{
    std::vector<std::uint32_t> map(kEntities);
    for (std::size_t e = 0; e < kEntities; ++e)
        map[e] = static_cast<std::uint32_t>(e * shards / kEntities);
    ShardedExecutor exec(map, shards, kL);
    exec.forceSerial(force_serial);
    Ring ring{exec};
    for (std::size_t e = 0; e < kEntities; ++e)
        exec.queueFor(e).schedule(e, [&ring, e] {
            ring.arrive(e, 40);
        });
    exec.run();
    EXPECT_TRUE(exec.empty());
    EXPECT_GT(exec.executed(), 0u);
    return std::move(ring.log);
}

TEST(ShardedExecutor, RingScheduleIsShardCountInvariant)
{
    const auto serial = runRing(1, false);
    for (const std::size_t shards : {2u, 4u, 8u}) {
        const auto sharded = runRing(shards, false);
        EXPECT_EQ(sharded, serial) << shards << " shards";
    }
}

TEST(ShardedExecutor, ForcedSerialMatchesThreadedExecution)
{
    // The serial path executes the identical window schedule — the
    // hook TSAN-free debugging relies on.
    EXPECT_EQ(runRing(4, true), runRing(4, false));
}

TEST(ShardedExecutor, SameTickMergeIsCanonicallyOrdered)
{
    // Every entity posts to entity 0 at one tick; the staged merge
    // must deliver them in source order regardless of which worker
    // thread staged first or how entities spread over shards.
    const auto converge = [](std::size_t shards) {
        std::vector<std::uint32_t> map(kEntities);
        for (std::size_t e = 0; e < kEntities; ++e)
            map[e] = static_cast<std::uint32_t>(e * shards / kEntities);
        ShardedExecutor exec(map, shards, kL);
        std::vector<std::size_t> order;
        for (std::size_t e = 0; e < kEntities; ++e)
            exec.queueFor(e).schedule(e, [&exec, &order, e] {
                exec.post(e, 0, 100, [&order, e] {
                    order.push_back(e);
                });
            });
        exec.run();
        return order;
    };
    const std::vector<std::size_t> expected{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(converge(1), expected);
    EXPECT_EQ(converge(3), expected);
    EXPECT_EQ(converge(8), expected);
}

TEST(ShardedExecutor, StagedEventBelowTheHorizonPanics)
{
    // An event at tick 150 posting only 50 ticks ahead violates the
    // declared lookahead of 100: the merge must refuse rather than
    // silently produce shard-count-dependent schedules.
    ShardedExecutor exec({0, 0}, 1, 100);
    exec.queueFor(0).schedule(150, [&exec] {
        exec.post(0, 1, 200, [] {});
    });
    EXPECT_THROW(exec.run(), sim::PanicError);
}

TEST(ShardedExecutor, TickHookFiresAtQuiescentBarriers)
{
    ShardedExecutor exec({0, 1}, 2, 1000);
    std::vector<std::pair<Tick, std::uint64_t>> hooks;
    exec.setTickHook(100, [&exec, &hooks](Tick tick) {
        hooks.emplace_back(tick, exec.executed());
    });
    exec.queueFor(0).schedule(50, [] {});
    exec.queueFor(1).schedule(150, [] {});
    exec.queueFor(0).schedule(910, [] {});
    exec.run();
    // Samples at every period multiple below the last event, each
    // observing exactly the events at or before its tick.
    ASSERT_EQ(hooks.size(), 9u);
    EXPECT_EQ(hooks.front(), (std::pair<Tick, std::uint64_t>{100, 1}));
    EXPECT_EQ(hooks[1], (std::pair<Tick, std::uint64_t>{200, 2}));
    EXPECT_EQ(hooks.back(), (std::pair<Tick, std::uint64_t>{900, 2}));
    exec.clearTickHook();
}

TEST(ShardedExecutor, ResetRestoresThePristineState)
{
    ShardedExecutor exec({0, 1}, 2, kL);
    EXPECT_TRUE(exec.pristine());
    exec.queueFor(0).schedule(0, [&exec] {
        exec.post(0, 1, kL, [] {});
    });
    exec.run();
    EXPECT_FALSE(exec.pristine());
    exec.reset();
    EXPECT_TRUE(exec.pristine());
    EXPECT_EQ(exec.executed(), 0u);
    EXPECT_EQ(exec.now(), 0u);
}

// ------------------------------------------- full-system invariance

void
expectSameMetrics(const RunMetrics &a, const RunMetrics &b,
                  const char *what)
{
    EXPECT_EQ(a.requests_issued, b.requests_issued) << what;
    EXPECT_EQ(a.requests_coalesced, b.requests_coalesced) << what;
    EXPECT_EQ(a.elapsed, b.elapsed) << what;
    // Exact equality, not near-equality: the sharded engine promises
    // bit-identical results at every shard count.
    EXPECT_EQ(a.achieved_bytes_per_second, b.achieved_bytes_per_second)
        << what;
    EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns) << what;
    EXPECT_EQ(a.p95_latency_ns, b.p95_latency_ns) << what;
    EXPECT_EQ(a.network_power_w, b.network_power_w) << what;
    EXPECT_EQ(a.token_wait_ns, b.token_wait_ns) << what;
    EXPECT_EQ(a.hop_traversals, b.hop_traversals) << what;
    EXPECT_EQ(a.mshr_full_stalls, b.mshr_full_stalls) << what;
    EXPECT_EQ(a.peak_mc_queue, b.peak_mc_queue) << what;
    EXPECT_EQ(a.offered_bytes_per_second, b.offered_bytes_per_second)
        << what;
    EXPECT_EQ(a.events_executed, b.events_executed) << what;
}

/** A fresh Uniform run over @p config's clusters at @p sim_threads. */
RunMetrics
runSharded(const SystemConfig &config, unsigned sim_threads,
           std::uint64_t requests)
{
    workload::SyntheticWorkload workload(
        workload::Pattern::Uniform, topology::Geometry(config.clusters), {});
    // A workload built for another cluster count would silently fall
    // back to the classic engine and compare it against itself.
    EXPECT_EQ(core::effectiveSimThreads(sim_threads, config, workload, 0,
                                        /*tracing=*/false),
              sim_threads);
    SimParams params;
    params.requests = requests;
    params.sim_threads = sim_threads;
    return core::runExperiment(config, workload, params);
}

TEST(ParallelParity, CrossbarMetricsAreShardCountInvariant)
{
    const auto config = core::makeConfig(NetworkKind::XBar,
                                         MemoryKind::OCM);
    const RunMetrics serial = runSharded(config, 1, 3000);
    expectSameMetrics(runSharded(config, 2, 3000), serial, "2 shards");
    expectSameMetrics(runSharded(config, 4, 3000), serial, "4 shards");

    // The 256-cluster crossbar (4x the paper's radix) at up to 8 shards.
    auto wide = config;
    wide.clusters = 256;
    const RunMetrics wide_serial = runSharded(wide, 1, 20'000);
    expectSameMetrics(runSharded(wide, 2, 20'000), wide_serial,
                      "256 clusters, 2 shards");
    expectSameMetrics(runSharded(wide, 4, 20'000), wide_serial,
                      "256 clusters, 4 shards");
    expectSameMetrics(runSharded(wide, 8, 20'000), wide_serial,
                      "256 clusters, 8 shards");
}

TEST(ParallelParity, MeshMetricsAreShardCountInvariant)
{
    const auto config = core::makeConfig(NetworkKind::HMesh,
                                         MemoryKind::ECM);
    const RunMetrics serial = runSharded(config, 1, 2000);
    expectSameMetrics(runSharded(config, 2, 2000), serial, "2 shards");
    expectSameMetrics(runSharded(config, 4, 2000), serial, "4 shards");
}

TEST(ParallelParity, PooledLeasesMatchFreshContexts)
{
    const auto config = core::makeConfig(NetworkKind::XBar,
                                         MemoryKind::OCM);
    const RunMetrics fresh = runSharded(config, 4, 2000);

    core::SystemPool pool;
    SimParams params;
    params.requests = 2000;
    params.sim_threads = 4;
    for (int lease = 0; lease < 2; ++lease) {
        auto workload = workload::makeUniform();
        core::SimContext &ctx = pool.lease(config, 4);
        ASSERT_TRUE(ctx.pristine());
        ASSERT_NE(ctx.executor(), nullptr);
        expectSameMetrics(core::runExperiment(ctx, *workload, params),
                          fresh, lease ? "reset lease" : "first lease");
    }
    EXPECT_EQ(pool.reuses(), 1u);

    // Serial and sharded leases of one config are distinct contexts:
    // an engine switch must never recycle the other engine's state.
    EXPECT_NE(&pool.lease(config, 0), &pool.lease(config, 4));
}

TEST(ParallelParity, FallbackRunsMatchTheClassicEngine)
{
    // A non-partitionable workload silently falls back to serial:
    // requesting shards must then change nothing at all.
    const auto config = core::makeConfig(NetworkKind::XBar,
                                         MemoryKind::OCM);
    SimParams params;
    params.requests = 1500;
    const auto classic_wl = workload::makeSplash("Barnes");
    const RunMetrics classic =
        core::runExperiment(config, *classic_wl, params);
    params.sim_threads = 4;
    const auto fallback_wl = workload::makeSplash("Barnes");
    expectSameMetrics(core::runExperiment(config, *fallback_wl, params),
                      classic, "splash fallback");
}

} // namespace
