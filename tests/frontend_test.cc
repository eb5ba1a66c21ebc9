/**
 * @file
 * Tests for the coherent traffic-injection front end: hierarchy
 * filtering semantics, the pass-through parity gate (a zero-size
 * hierarchy must reproduce the miss-stream front end bit for bit, in
 * metrics and in campaign sink/checkpoint bytes, pooled and fresh, at
 * any worker count), pooled-vs-fresh parity with real caches and
 * sharing traffic, the write-through store path, broadcast-vs-unicast
 * invalidation transport, and invalidations racing evictions.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "cache/hierarchy.hh"
#include "corona/context.hh"
#include "corona/frontend.hh"
#include "corona/simulation.hh"
#include "fresh_runs.hh"
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

/** The coherent config whose event stream must equal miss-stream: no
 * cache levels, and the base config's label so campaign axes (CSV
 * config columns, checkpoint fingerprints) match byte for byte. */
core::SystemConfig
passThroughConfig(core::NetworkKind network, core::MemoryKind memory)
{
    core::SystemConfig config = core::makeConfig(network, memory);
    config.label = config.name();
    config.frontend = core::FrontendKind::Coherent;
    config.l1_kib = 0;
    config.l2_kib = 0;
    return config;
}

// ---------------------------------------------------------------------
// ClusterHierarchy semantics.

TEST(Hierarchy, PassThroughMissesEverything)
{
    cache::HierarchyConfig hc;
    hc.l1_kib = 0;
    hc.l2_kib = 0;
    cache::ClusterHierarchy hier(hc);
    EXPECT_TRUE(hier.passThrough());
    for (int i = 0; i < 3; ++i) {
        const cache::HierarchyResult r = hier.access(0x1000, true);
        EXPECT_FALSE(r.hit);
        EXPECT_TRUE(r.evictions.empty());
        EXPECT_TRUE(r.writebacks.empty());
    }
    EXPECT_FALSE(hier.contains(0x1000));
}

TEST(Hierarchy, SecondAccessHitsBothLevels)
{
    cache::ClusterHierarchy hier; // Default 32K/256K.
    EXPECT_FALSE(hier.access(0x40, false).hit);
    EXPECT_TRUE(hier.access(0x40, false).hit);
    EXPECT_TRUE(hier.contains(0x40));
    ASSERT_NE(hier.l1(), nullptr);
    ASSERT_NE(hier.l2(), nullptr);
    EXPECT_EQ(hier.l1()->hits(), 1u);
}

TEST(Hierarchy, L2EvictionBackInvalidatesL1)
{
    // 1 KiB direct-mapped at both levels: 16 sets of 64 B lines, so
    // addresses 1024 apart collide.
    cache::HierarchyConfig hc;
    hc.l1_kib = 1;
    hc.l1_assoc = 1;
    hc.l2_kib = 1;
    hc.l2_assoc = 1;
    cache::ClusterHierarchy hier(hc);

    hier.access(0, /*write=*/true);
    ASSERT_TRUE(hier.contains(0));
    const cache::HierarchyResult r = hier.access(1024, false);
    EXPECT_FALSE(r.hit);
    // Line 0 left the L2, so it must leave the whole hierarchy...
    ASSERT_EQ(r.evictions.size(), 1u);
    EXPECT_EQ(r.evictions[0], 0u);
    EXPECT_FALSE(hier.contains(0));
    // ...and its dirty copy (the store lived in the L1) writes back.
    ASSERT_EQ(r.writebacks.size(), 1u);
    EXPECT_EQ(r.writebacks[0], 0u);
}

TEST(Hierarchy, WriteThroughStoresNeverDirtyLines)
{
    cache::HierarchyConfig hc;
    hc.l1_kib = 1;
    hc.l1_assoc = 1;
    hc.l2_kib = 1;
    hc.l2_assoc = 1;
    hc.write_through = true;
    cache::ClusterHierarchy hier(hc);

    EXPECT_FALSE(hier.access(0, true).hit); // Miss fill: no sideband.
    const cache::HierarchyResult hit = hier.access(0, true);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.write_through); // Store hit: the word travels.
    // A colliding access evicts a *clean* line: no writeback.
    const cache::HierarchyResult r = hier.access(1024, false);
    ASSERT_EQ(r.evictions.size(), 1u);
    EXPECT_TRUE(r.writebacks.empty());
}

TEST(Hierarchy, InvalidateReportsResidencyAndDirt)
{
    cache::ClusterHierarchy hier;
    hier.access(0x80, true);
    const cache::InvalidateResult hit = hier.invalidateLine(0x80);
    EXPECT_TRUE(hit.present);
    EXPECT_TRUE(hit.dirty);
    EXPECT_FALSE(hier.contains(0x80));
    const cache::InvalidateResult miss = hier.invalidateLine(0x80);
    EXPECT_FALSE(miss.present);
    EXPECT_FALSE(miss.dirty);
}

// ---------------------------------------------------------------------
// The pass-through parity gate.

TEST(FrontEndParity, PassThroughMetricsMatchMissStream)
{
    const auto base =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    auto w1 = workload::registryFactory("Uniform")();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::registryFactory("Uniform")();
    const auto coherent = core::runExperiment(
        passThroughConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        *w2, tinyParams());
    expectSameMetrics(miss_stream, coherent);
}

TEST(FrontEndParity, PassThroughMetricsMatchOnAMeshSystemToo)
{
    const auto base = core::makeConfig(core::NetworkKind::LMesh,
                                       core::MemoryKind::ECM);
    auto w1 = workload::registryFactory("Uniform")();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::registryFactory("Uniform")();
    const auto coherent = core::runExperiment(
        passThroughConfig(core::NetworkKind::LMesh,
                          core::MemoryKind::ECM),
        *w2, tinyParams());
    expectSameMetrics(miss_stream, coherent);
}

campaign::CampaignSpec
gridSpec(bool coherent_passthrough)
{
    campaign::CampaignSpec spec;
    spec.name = "frontend-parity";
    spec.workloads = {
        {"Uniform", true, workload::registryFactory("Uniform")},
        {"Migratory", false, workload::registryFactory("Migratory")},
    };
    if (coherent_passthrough) {
        spec.configs = {
            passThroughConfig(core::NetworkKind::XBar,
                              core::MemoryKind::OCM),
            passThroughConfig(core::NetworkKind::LMesh,
                              core::MemoryKind::ECM),
        };
    } else {
        spec.configs = {
            core::makeConfig(core::NetworkKind::XBar,
                             core::MemoryKind::OCM),
            core::makeConfig(core::NetworkKind::LMesh,
                             core::MemoryKind::ECM),
        };
    }
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

/** The CSV sink bytes of @p spec from the runner. */
std::string
runGrid(const campaign::CampaignSpec &spec, std::size_t threads)
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

TEST(FrontEndParity, SinkBytesMatchMissStreamPooledAndFreshAt1And4Workers)
{
    const std::string baseline = test::freshCsv(gridSpec(false));
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(baseline, test::freshCsv(gridSpec(true)));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
        EXPECT_EQ(baseline, runGrid(gridSpec(true), threads))
            << "threads=" << threads;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(FrontEndParity, CheckpointBytesMatchMissStream)
{
    const test::TestDir dir;
    const auto miss_stream = gridSpec(false);
    {
        campaign::CheckpointFile checkpoint(dir.file("miss.ckpt"),
                                            miss_stream);
        test::writeFreshRecords(miss_stream, checkpoint.sink());
        checkpoint.checkWritten();
    }
    const auto coherent = gridSpec(true);
    {
        campaign::CheckpointFile checkpoint(dir.file("coherent.ckpt"),
                                            coherent);
        campaign::RunnerOptions options;
        options.threads = 2;
        campaign::CampaignRunner runner(options);
        runner.addSink(checkpoint.sink());
        runner.run(coherent);
        checkpoint.checkWritten();
    }
    const std::string expected = slurp(dir.file("miss.ckpt"));
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(expected, slurp(dir.file("coherent.ckpt")));
}

// ---------------------------------------------------------------------
// Coherent mode with real caches: pooled leases must behave freshly.

campaign::CampaignSpec
coherentSpec()
{
    core::SystemConfig config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    campaign::CampaignSpec spec;
    spec.name = "coherent-pool-parity";
    spec.workloads = {
        {"Migratory", false, workload::registryFactory("Migratory")},
        {"False Sharing", false,
         workload::registryFactory("False Sharing")},
    };
    spec.configs = {config};
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

TEST(CoherentFrontEnd, PooledRunsAreByteIdenticalToFreshOnes)
{
    const std::string fresh = test::freshCsv(coherentSpec());
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, runGrid(coherentSpec(), 1));
    EXPECT_EQ(fresh, runGrid(coherentSpec(), 4));
}

// ---------------------------------------------------------------------
// Store policy: a write-through store hit sends its word to memory.

TEST(CoherentFrontEnd, WriteThroughStoreHitsReachMemory)
{
    const campaign::CampaignSpec spec = campaign::parseScenario(R"(
[scenario]
name = write-policy
requests = 3000
seed = 3
seed_policy = fixed

[workloads]
workload = Producer-Consumer
workload = False Sharing lines=32

[configs]
config = XBar/OCM frontend=coherent write_policy=writeback
config = XBar/OCM frontend=coherent write_policy=writethrough
)")
                                            .resolve();
    // Workload-major: each workload under writeback, then
    // writethrough.
    const std::vector<campaign::RunPlan> plans = campaign::expand(spec);
    ASSERT_EQ(plans.size(), 4u);
    std::vector<std::uint64_t> writebacks;
    for (const campaign::RunPlan &plan : plans) {
        core::SimContext ctx(plan.system);
        const auto workload = plan.make_workload();
        core::runExperiment(ctx, *workload, plan.params);
        const core::CoherentFrontEnd *fe = ctx.system().frontEnd();
        ASSERT_NE(fe, nullptr);
        writebacks.push_back(fe->writebacks());

        // Every request a hub sends to memory, over the network or
        // locally, is one memory-controller access.
        std::uint64_t mc_accesses = 0, hub_requests = 0;
        for (topology::ClusterId c = 0; c < plan.system.clusters; ++c) {
            mc_accesses += ctx.system().mc(c).accesses();
            hub_requests += ctx.system().hub(c).networkRequests() +
                            ctx.system().hub(c).localRequests();
        }
        EXPECT_GT(mc_accesses, 0u) << plan.workload << " on " << plan.config;
        EXPECT_EQ(mc_accesses, hub_requests)
            << plan.workload << " on " << plan.config;
    }
    EXPECT_GT(writebacks[1], writebacks[0]) << plans[0].workload;
    EXPECT_GT(writebacks[3], writebacks[2]) << plans[2].workload;
}

// ---------------------------------------------------------------------
// Invalidation transport.

core::SystemConfig
coherentConfig(core::InvalTransport transport)
{
    core::SystemConfig config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    config.inval_transport = transport;
    return config;
}

TEST(CoherentFrontEnd, BroadcastAndUnicastTransportsDiffer)
{
    core::SimContext bcast(coherentConfig(core::InvalTransport::Broadcast));
    auto w1 = workload::registryFactory("False Sharing")();
    core::runExperiment(bcast, *w1, tinyParams(2000, 3));
    const core::CoherentFrontEnd *bus_fe = bcast.system().frontEnd();
    ASSERT_NE(bus_fe, nullptr);

    core::SimContext uni(coherentConfig(core::InvalTransport::Unicast));
    auto w2 = workload::registryFactory("False Sharing")();
    core::runExperiment(uni, *w2, tinyParams(2000, 3));
    const core::CoherentFrontEnd *uni_fe = uni.system().frontEnd();
    ASSERT_NE(uni_fe, nullptr);

    // False Sharing hammers a hot shared pool, so invalidations are
    // plentiful; the transports must route them differently.
    EXPECT_GT(bus_fe->broadcasts(), 0u);
    ASSERT_NE(bus_fe->broadcastBus(), nullptr);
    EXPECT_GT(bus_fe->broadcastBus()->broadcastsSent(), 0u);
    EXPECT_EQ(uni_fe->broadcasts(), 0u);
    EXPECT_GT(uni_fe->sidebandMessages(), bus_fe->sidebandMessages());
}

// ---------------------------------------------------------------------
// Invalidations racing evictions.

/** Takes a hub's fills without a run behind them. */
class DiscardingClient final : public core::Hub::Client
{
  public:
    void fill(const core::Hub::Waiter &) override {}
    void retry(std::uint32_t) override {}
};

TEST(CoherentFrontEnd, LateInvalidateAfterEvictionIsCountedNotFatal)
{
    DiscardingClient client;
    core::SimContext ctx(coherentConfig(core::InvalTransport::Unicast));
    core::CoherentFrontEnd *fe = ctx.system().frontEnd();
    ASSERT_NE(fe, nullptr);
    ctx.system().hub(2).bind(&client);

    // Make line 0x40 resident at cluster 2 (the hierarchy and protocol
    // update at admission), then drain the fill traffic.
    const auto outcome = fe->access(2, 0x40, 1, /*write=*/false, {0, 0});
    EXPECT_EQ(outcome, core::CoherentFrontEnd::Outcome::Sent);
    ctx.eq().run();
    EXPECT_TRUE(fe->hierarchy(2).contains(0x40));

    // A unicast invalidate finds the copy...
    noc::Message inval;
    inval.dst = 2;
    inval.kind = noc::MsgKind::Invalidate;
    inval.tag =
        (static_cast<std::uint64_t>(coherence::CoherenceMsg::Inval) << 60) |
        0x40;
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalHits(), 1u);
    EXPECT_EQ(fe->invalMisses(), 0u);
    EXPECT_FALSE(fe->hierarchy(2).contains(0x40));

    // ...and one that lost the race to an eviction (the line is gone
    // by delivery time) is counted, not fatal.
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalHits(), 1u);
    EXPECT_EQ(fe->invalMisses(), 1u);

    // A broadcast snooping a non-sharer is the common case: silent
    // (mesh systems fan InvalBcast out as per-cluster sidebands).
    inval.tag = (static_cast<std::uint64_t>(
                     coherence::CoherenceMsg::InvalBcast)
                 << 60) |
                0x40;
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalMisses(), 1u);
}

} // namespace
