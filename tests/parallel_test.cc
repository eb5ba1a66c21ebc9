/**
 * @file
 * Conservative parallel execution tests (ROADMAP item 2): the
 * execution-planning helpers (lookahead, entity partition, serial
 * fallback), the ShardedExecutor's deterministic staged import, its
 * allocation-free steady state and barrier tick hooks, and — the
 * property everything else exists for — full-system metric invariance
 * across shard counts, fresh and pooled, on both fabric families.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_counter.hh"

#include "corona/context.hh"
#include "corona/exec_plan.hh"
#include "corona/simulation.hh"
#include "sim/clock.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
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

/** kEntities entities in contiguous runs over @p shards shards. */
std::vector<std::uint32_t>
spread(std::size_t shards)
{
    std::vector<std::uint32_t> map(kEntities);
    for (std::size_t e = 0; e < kEntities; ++e)
        map[e] = static_cast<std::uint32_t>(e * shards / kEntities);
    return map;
}

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
    ShardedExecutor exec(spread(shards), shards, kL);
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

/** One arrival at an entity: its tick, the posting entity and the
 * poster's running post count (so the order of one source's posts to
 * one tick is visible too). */
using Arrival = std::tuple<Tick, std::size_t, std::uint64_t>;

/** A seeded random post pattern: every arrival at entity e logs
 * itself, then, while e's budget lasts, posts one or two events to
 * random entities at latencies drawn from [L, 4L]. Log, RNG and budget
 * are entity-private, so the logs are shard-count invariant exactly
 * when every destination imports in canonical order. */
struct Scatter
{
    static constexpr std::uint64_t budget = 120;

    ShardedExecutor &exec;
    std::vector<std::vector<Arrival>> log =
        std::vector<std::vector<Arrival>>(kEntities);
    std::vector<std::uint64_t> posted =
        std::vector<std::uint64_t>(kEntities, 0);
    std::vector<sim::Rng> rng = [] {
        std::vector<sim::Rng> streams;
        for (std::size_t e = 0; e < kEntities; ++e)
            streams.emplace_back(sim::splitmix64(0x5ca77e5 + e));
        return streams;
    }();

    void
    arrive(std::size_t e, std::size_t from, std::uint64_t serial)
    {
        const Tick now = exec.queueFor(e).now();
        log[e].emplace_back(now, from, serial);
        const std::uint64_t fanout = 1 + rng[e].below(2);
        for (std::uint64_t i = 0; i < fanout && posted[e] < budget;
             ++i) {
            const std::size_t dst = rng[e].below(kEntities);
            const Tick when = now + kL + rng[e].below(3 * kL + 1);
            const std::uint64_t n = posted[e]++;
            exec.post(e, dst, when,
                      [this, dst, e, n] { arrive(dst, e, n); });
        }
    }
};

std::vector<std::vector<Arrival>>
runScatter(std::size_t shards, bool force_serial)
{
    ShardedExecutor exec(spread(shards), shards, kL);
    exec.forceSerial(force_serial);
    Scatter scatter{exec};
    for (std::size_t e = 0; e < kEntities; ++e)
        exec.queueFor(e).schedule(e % 3, [&scatter, e] {
            scatter.arrive(e, kEntities, 0);
        });
    exec.run();
    EXPECT_TRUE(exec.empty()) << shards << " shards";
    EXPECT_EQ(exec.executed(), kEntities * (Scatter::budget + 1))
        << shards << " shards";
    return std::move(scatter.log);
}

TEST(ShardedExecutor, RandomPostPatternIsShardCountInvariant)
{
    const auto serial = runScatter(1, false);
    // The pattern must exercise the canonical order: several sources
    // reaching one destination at one tick.
    std::size_t shared_ticks = 0;
    for (const std::vector<Arrival> &arrivals : serial) {
        std::map<Tick, std::set<std::size_t>> sources;
        for (const auto &[tick, from, n] : arrivals)
            sources[tick].insert(from);
        for (const auto &[tick, from] : sources)
            shared_ticks += from.size() > 1;
    }
    EXPECT_GT(shared_ticks, 10u);

    for (const std::size_t shards : {2u, 3u, 8u})
        EXPECT_EQ(runScatter(shards, false), serial) << shards << " shards";
    EXPECT_EQ(runScatter(3, true), serial) << "forced serial";
}

TEST(ShardedExecutor, SameTickMergeIsCanonicallyOrdered)
{
    // Every entity posts to entity 0 at one tick; the staged merge
    // must deliver them in source order regardless of which worker
    // thread staged first or how entities spread over shards.
    const auto converge = [](std::size_t shards) {
        ShardedExecutor exec(spread(shards), shards, kL);
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

TEST(ShardedExecutor, ThrowingWindowLeavesItReusable)
{
    // A model fault propagates out of run() on the serial and the
    // threaded path alike, and a pooled context then resets the
    // executor and runs it again. A threaded run ends with the window
    // the fault was thrown in and rethrows it on the calling thread;
    // when several shards throw, the lowest-numbered shard's fault is
    // reported, as on the serial path.
    constexpr std::size_t last = kEntities - 1; // On the last shard.
    const std::vector<std::vector<std::size_t>> throwers = {
        {0}, {last}, {0, last}};
    for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const bool serial : {true, false}) {
            for (const std::vector<std::size_t> &faulty : throwers) {
                ShardedExecutor exec(spread(shards), shards, kL);
                exec.forceSerial(serial);
                for (const std::size_t e : faulty) {
                    exec.queueFor(e).schedule(0, [&exec, e] {
                        exec.post(e, (e + 1) % kEntities, kL, [] {});
                        throw std::runtime_error("fault on entity " +
                                                 std::to_string(e));
                    });
                }
                // Every shard has work in a later window, which the
                // fault must cancel.
                std::atomic<int> later{0};
                for (std::size_t e = 0; e < kEntities; ++e)
                    exec.queueFor(e).schedule(4 * kL, [&later] {
                        ++later;
                    });
                const std::string label =
                    std::to_string(shards) + " shards, " +
                    (serial ? "serial" : "threaded") + ", first fault " +
                    std::to_string(faulty.front());
                try {
                    exec.run();
                    ADD_FAILURE() << label << ": the fault was lost";
                } catch (const std::runtime_error &e) {
                    EXPECT_EQ(std::string(e.what()),
                              "fault on entity " +
                                  std::to_string(faulty.front()))
                        << label;
                }
                EXPECT_EQ(later.load(), 0) << label;
                exec.reset();
                EXPECT_TRUE(exec.pristine()) << label;

                bool delivered = false;
                exec.queueFor(0).schedule(0, [&exec, &delivered] {
                    exec.post(0, last, kL,
                              [&delivered] { delivered = true; });
                });
                EXPECT_NO_THROW(exec.run()) << label;
                EXPECT_TRUE(delivered) << label;
                EXPECT_TRUE(exec.empty()) << label;
            }
        }
    }
}

/** Two tokens per entity circling for ever, until a stop tick: one to
 * the next entity a lookahead later, one three entities on at twice
 * that. Every window stages the same number of posts per lane. */
struct Carousel
{
    ShardedExecutor &exec;
    Tick stop;

    void
    arrive(std::size_t e, std::size_t stride)
    {
        const Tick now = exec.queueFor(e).now();
        if (now >= stop)
            return;
        const std::size_t dst = (e + stride) % kEntities;
        exec.post(e, dst, now + stride / 2 * kL + kL,
                  [this, dst, stride] { arrive(dst, stride); });
    }
};

TEST(ShardedExecutor, SteadyPostsDoNotAllocate)
{
    for (const std::size_t shards : {1u, 2u, 4u}) {
        ShardedExecutor exec(spread(shards), shards, kL);
        Carousel carousel{exec, 400 * kL};
        for (std::size_t e = 0; e < kEntities; ++e) {
            for (const std::size_t stride : {1u, 3u})
                exec.queueFor(e).schedule(0, [&carousel, e, stride] {
                    carousel.arrive(e, stride);
                });
        }
        // Sample the allocation count at barriers, every ten windows.
        std::vector<std::size_t> counts;
        counts.reserve(64);
        exec.setTickHook(10 * kL, [&counts](Tick) {
            counts.push_back(test::allocations.load());
        });
        exec.run();
        exec.clearTickHook();
        EXPECT_TRUE(exec.empty());
        ASSERT_GE(counts.size(), 30u);
        // The first windows grow the staging lanes, the key buffers and
        // the queues' node pools; after that, nothing may allocate.
        for (std::size_t i = 2; i < counts.size(); ++i)
            EXPECT_EQ(counts[i], counts[1])
                << shards << " shards, sample " << i;
    }
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
