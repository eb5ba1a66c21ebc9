/**
 * @file
 * Unit tests for system assembly: configurations (Table 1 / Section 4),
 * hub request plumbing, MSHR back-pressure, and local-access bypass.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "corona/config.hh"
#include "corona/hub.hh"
#include "corona/knobs.hh"
#include "corona/system.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;
using core::CoronaSystem;
using core::Hub;
using core::MemoryKind;
using core::NetworkKind;
using core::SystemConfig;
using sim::EventQueue;

/** Stands in for the run a hub hands its fills and retries to. */
class RecordingClient final : public Hub::Client
{
  public:
    explicit RecordingClient(const EventQueue &eq) : _eq(eq) {}

    void
    fill(const Hub::Waiter &waiter) override
    {
        fills.push_back(waiter.thread);
        fillTicks.push_back(_eq.now());
    }

    void
    retry(std::uint32_t thread) override
    {
        retries.push_back(thread);
        if (onRetry)
            onRetry(thread);
    }

    std::vector<std::uint32_t> fills;
    std::vector<sim::Tick> fillTicks;
    std::vector<std::uint32_t> retries;
    std::function<void(std::uint32_t)> onRetry;

  private:
    const EventQueue &_eq;
};

TEST(Config, PaperConfigsInFigureOrder)
{
    const auto configs = core::paperConfigs();
    ASSERT_EQ(configs.size(), 5u);
    EXPECT_EQ(configs[0].name(), "LMesh/ECM");
    EXPECT_EQ(configs[1].name(), "HMesh/ECM");
    EXPECT_EQ(configs[2].name(), "LMesh/OCM");
    EXPECT_EQ(configs[3].name(), "HMesh/OCM");
    EXPECT_EQ(configs[4].name(), "XBar/OCM");
}

TEST(Config, Table1Scale)
{
    const SystemConfig config;
    EXPECT_EQ(config.clusters, 64u);
    EXPECT_EQ(config.threads_per_cluster, 16u);
    EXPECT_EQ(config.threads(), 1024u);
}

TEST(Config, MeshParamsFollowKind)
{
    const auto hmesh = core::makeConfig(NetworkKind::HMesh,
                                        MemoryKind::ECM);
    EXPECT_DOUBLE_EQ(hmesh.mesh.bisection_bytes_per_second, 1.28e12);
    const auto lmesh = core::makeConfig(NetworkKind::LMesh,
                                        MemoryKind::OCM);
    EXPECT_DOUBLE_EQ(lmesh.mesh.bisection_bytes_per_second, 0.64e12);
}

TEST(System, BuildsAllFiveConfigurations)
{
    for (const auto &config : core::paperConfigs()) {
        EventQueue eq;
        CoronaSystem system(eq, config);
        EXPECT_EQ(system.geometry().clusters(), 64u);
        if (config.network == NetworkKind::XBar) {
            EXPECT_NE(system.crossbar(), nullptr);
            EXPECT_EQ(system.meshNetwork(), nullptr);
        } else {
            EXPECT_EQ(system.crossbar(), nullptr);
            EXPECT_NE(system.meshNetwork(), nullptr);
        }
        const double expected_mem =
            config.memory == MemoryKind::OCM ? 10.24e12 : 0.96e12;
        EXPECT_NEAR(system.memoryBandwidth(), expected_mem, 1e6);
    }
}

TEST(System, RemoteMissRoundTrip)
{
    EventQueue eq;
    CoronaSystem system(eq, core::makeConfig(NetworkKind::XBar,
                                             MemoryKind::OCM));
    RecordingClient client(eq);
    system.hub(3).bind(&client);
    const auto outcome = system.hub(3).issueMiss(
        /*line=*/0x1000, /*home=*/9, /*write=*/false, {7, 0});
    EXPECT_EQ(outcome, Hub::Issue::Sent);
    eq.run();
    ASSERT_EQ(client.fills, (std::vector<std::uint32_t>{7}));
    // Round trip: network there (+ token + serialization), 20 ns
    // memory, network back. Must exceed the raw 20 ns memory latency
    // and stay well under a microsecond in an idle system.
    const sim::Tick fill_time = client.fillTicks[0];
    EXPECT_GT(fill_time, 20000u);
    EXPECT_LT(fill_time, 100000u);
    EXPECT_EQ(system.hub(3).networkRequests(), 1u);
    EXPECT_EQ(system.mc(9).accesses(), 1u);
    EXPECT_EQ(system.memoryBytesMoved(), 64u);
}

TEST(System, LocalMissBypassesNetwork)
{
    EventQueue eq;
    CoronaSystem system(eq, core::makeConfig(NetworkKind::XBar,
                                             MemoryKind::OCM));
    RecordingClient client(eq);
    system.hub(5).bind(&client);
    system.hub(5).issueMiss(0x2000, /*home=*/5, false, {4, 0});
    eq.run();
    ASSERT_EQ(client.fills, (std::vector<std::uint32_t>{4}));
    EXPECT_EQ(system.hub(5).localRequests(), 1u);
    EXPECT_EQ(system.hub(5).networkRequests(), 0u);
    EXPECT_EQ(system.network().netStats().messages.value(), 0u);
    // 20 ns memory + two hub hops.
    EXPECT_NEAR(static_cast<double>(client.fillTicks[0]),
                20000.0 + 2 * 200 + 600, 1500.0);
}

TEST(System, CoalescingMergesSameLine)
{
    EventQueue eq;
    CoronaSystem system(eq, core::makeConfig(NetworkKind::XBar,
                                             MemoryKind::OCM));
    RecordingClient client(eq);
    system.hub(2).bind(&client);
    auto first = system.hub(2).issueMiss(0x40, 11, false, {1, 0});
    auto second = system.hub(2).issueMiss(0x40, 11, false, {2, 0});
    EXPECT_EQ(first, Hub::Issue::Sent);
    EXPECT_EQ(second, Hub::Issue::Coalesced);
    eq.run();
    EXPECT_EQ(client.fills, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(system.mc(11).accesses(), 1u) << "one fill, two waiters";
}

TEST(System, MshrFullStallsAndWakes)
{
    EventQueue eq;
    auto config = core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    config.mshrs_per_cluster = 2;
    CoronaSystem system(eq, config);
    RecordingClient client(eq);
    Hub &hub = system.hub(0);
    hub.bind(&client);
    EXPECT_EQ(hub.issueMiss(0x40, 1, false, {0, 0}), Hub::Issue::Sent);
    EXPECT_EQ(hub.issueMiss(0x80, 2, false, {1, 0}), Hub::Issue::Sent);
    EXPECT_EQ(hub.issueMiss(0xC0, 3, false, {2, 0}),
              Hub::Issue::MshrFull);
    hub.stallOnMshr(2);
    client.onRetry = [&](std::uint32_t thread) {
        EXPECT_EQ(hub.issueMiss(0xC0, 3, false, {thread, 0}),
                  Hub::Issue::Sent);
    };
    eq.run();
    EXPECT_EQ(client.retries, (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(client.fills.size(), 3u);
    EXPECT_EQ(hub.mshrs().fullStalls(), 1u);
}

TEST(System, WriteMissGetsAck)
{
    EventQueue eq;
    CoronaSystem system(eq, core::makeConfig(NetworkKind::HMesh,
                                             MemoryKind::ECM));
    RecordingClient client(eq);
    system.hub(1).bind(&client);
    system.hub(1).issueMiss(0x3000, 8, /*write=*/true, {3, 0});
    eq.run();
    EXPECT_EQ(client.fills, (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(system.mc(8).accesses(), 1u);
}

TEST(System, FillWithNoClientPanics)
{
    // reset() unbinds the client: a pooled system's next run must bind
    // its own before a fill can reach it.
    EventQueue eq;
    CoronaSystem system(eq, core::makeConfig(NetworkKind::XBar,
                                             MemoryKind::OCM));
    RecordingClient client(eq);
    Hub &hub = system.hub(5);
    hub.bind(&client);
    hub.reset();
    hub.issueMiss(0x2000, /*home=*/5, false, {4, 0});
    EXPECT_THROW(eq.run(), sim::PanicError);
    EXPECT_TRUE(client.fills.empty());
}

} // namespace
