/**
 * @file
 * Tests for the coherent traffic-injection front end: hierarchy
 * filtering semantics, the pass-through parity gate (a zero-size
 * hierarchy must reproduce the miss-stream front end bit for bit, in
 * metrics and in campaign sink/checkpoint bytes, pooled and fresh, at
 * any worker count), pooled-vs-fresh parity with real caches and
 * sharing traffic, broadcast-vs-unicast invalidation transport, and
 * invalidations racing evictions.
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
#include "cache/hierarchy.hh"
#include "corona/context.hh"
#include "corona/frontend.hh"
#include "corona/simulation.hh"
#include "workload/sharing.hh"
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
    auto w1 = workload::makeUniform();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::makeUniform();
    const auto coherent = core::runExperiment(
        passThroughConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        *w2, tinyParams());
    expectSameMetrics(miss_stream, coherent);
}

TEST(FrontEndParity, PassThroughMetricsMatchOnAMeshSystemToo)
{
    const auto base = core::makeConfig(core::NetworkKind::LMesh,
                                       core::MemoryKind::ECM);
    auto w1 = workload::makeUniform();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::makeUniform();
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
        {"Uniform", true, workload::makeUniform},
        {"Migratory", false, workload::makeMigratory},
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

/** The CSV sink bytes of @p spec. */
std::string
runGrid(const campaign::CampaignSpec &spec, bool reuse_systems,
        std::size_t threads)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    campaign::RunnerOptions options;
    options.threads = threads;
    options.reuse_systems = reuse_systems;
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(spec);
    return csv.str();
}

TEST(FrontEndParity, SinkBytesMatchMissStreamPooledAndFreshAt1And4Workers)
{
    const std::string baseline = runGrid(gridSpec(false), false, 1);
    ASSERT_FALSE(baseline.empty());
    for (const bool pooled : {false, true}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            EXPECT_EQ(baseline, runGrid(gridSpec(true), pooled, threads))
                << "pooled=" << pooled << " threads=" << threads;
        }
    }
}

std::string
runGridToCheckpoint(const campaign::CampaignSpec &spec, bool reuse_systems,
                    const std::string &path)
{
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

TEST(FrontEndParity, CheckpointBytesMatchMissStream)
{
    const std::string dir = ::testing::TempDir();
    const std::string miss_stream = runGridToCheckpoint(
        gridSpec(false), false, dir + "/fe_miss.ckpt");
    const std::string coherent = runGridToCheckpoint(
        gridSpec(true), true, dir + "/fe_coherent.ckpt");
    EXPECT_FALSE(miss_stream.empty());
    EXPECT_EQ(miss_stream, coherent);
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
        {"Migratory", false, workload::makeMigratory},
        {"False Sharing", false, workload::makeFalseSharing},
    };
    spec.configs = {config};
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

TEST(CoherentFrontEnd, PooledRunsAreByteIdenticalToFreshOnes)
{
    const std::string fresh = runGrid(coherentSpec(), false, 1);
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, runGrid(coherentSpec(), true, 1));
    EXPECT_EQ(fresh, runGrid(coherentSpec(), true, 4));
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
    auto w1 = workload::makeFalseSharing();
    core::runExperiment(bcast, *w1, tinyParams(2000, 3));
    const core::CoherentFrontEnd *bus_fe = bcast.system().frontEnd();
    ASSERT_NE(bus_fe, nullptr);

    core::SimContext uni(coherentConfig(core::InvalTransport::Unicast));
    auto w2 = workload::makeFalseSharing();
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

TEST(CoherentFrontEnd, LateInvalidateAfterEvictionIsCountedNotFatal)
{
    core::SimContext ctx(coherentConfig(core::InvalTransport::Unicast));
    core::CoherentFrontEnd *fe = ctx.system().frontEnd();
    ASSERT_NE(fe, nullptr);

    // Make line 0x40 resident at cluster 2 (the hierarchy and protocol
    // update at admission), then drain the fill traffic.
    const auto outcome = fe->access(2, 0x40, 1, /*write=*/false, [] {});
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
