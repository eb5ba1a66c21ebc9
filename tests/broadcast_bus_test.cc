/**
 * @file
 * Unit tests for the optical broadcast bus (Section 3.2.2).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc_counter.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "xbar/broadcast_bus.hh"

namespace {

using namespace corona;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;
using xbar::BroadcastBus;

Message
invalidate(topology::ClusterId src, std::uint64_t tag = 0)
{
    Message msg;
    msg.src = src;
    msg.dst = src; // Broadcast: dst is not meaningful.
    msg.kind = MsgKind::Invalidate;
    msg.tag = tag;
    return msg;
}

TEST(BroadcastBus, OneSendReachesAllClusters)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    std::set<topology::ClusterId> receivers;
    bus.setDeliver([&](const Message &, topology::ClusterId cluster) {
        receivers.insert(cluster);
    });
    bus.broadcast(invalidate(12));
    eq.run();
    EXPECT_EQ(receivers.size(), 64u);
    EXPECT_EQ(bus.broadcastsSent(), 1u);
}

TEST(BroadcastBus, DeliveryFollowsCoilOrder)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    std::vector<topology::ClusterId> order;
    bus.setDeliver([&](const Message &, topology::ClusterId cluster) {
        order.push_back(cluster);
    });
    bus.broadcast(invalidate(0));
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    // Second-pass readers are visited in coil position order.
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(BroadcastBus, SerializedBySingleToken)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    int delivered = 0;
    bus.setDeliver([&](const Message &, topology::ClusterId) {
        ++delivered;
    });
    bus.broadcast(invalidate(3, 1));
    bus.broadcast(invalidate(9, 2));
    bus.broadcast(invalidate(60, 3));
    eq.run();
    EXPECT_EQ(delivered, 3 * 64);
    EXPECT_EQ(bus.broadcastsSent(), 3u);
}

TEST(BroadcastBus, InvalidateSerializesInOneClock)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    // A 16 B invalidate on the 16 B/clock bus takes one clock.
    EXPECT_EQ(bus.serializationTime(16), 200u);
    EXPECT_EQ(bus.serializationTime(17), 400u);
}

TEST(BroadcastBus, LatencyBoundedByTwoCoilPasses)
{
    // On an idle 64-cluster bus (token free at cluster 0, 25 ps per
    // hop) a send from src is granted after src hops (a full loop for
    // cluster 0) and modulates for one clock (a 16 B invalidate).
    // Snooper k hears it 64 - src + k hops after modulation ends: the
    // rest of the first pass, then k hops into the second, so every
    // delivery lands within two passes (128 hops).
    constexpr std::size_t kClusters = 64;
    constexpr Tick kHop = 25;
    for (const topology::ClusterId src : {0u, 1u, 10u, 63u}) {
        SCOPED_TRACE(src);
        EventQueue eq;
        BroadcastBus bus(eq, sim::coronaClock(), kClusters);
        ASSERT_EQ(bus.arbiter().hopTime(), kHop);
        std::vector<Tick> heard(kClusters, 0);
        bus.setDeliver([&](const Message &, topology::ClusterId k) {
            heard[k] = eq.now();
        });
        bus.broadcast(invalidate(src));
        eq.run();
        const Tick grant = (src == 0 ? kClusters : src) * kHop;
        EXPECT_EQ(bus.arbiter().waitStats().max(),
                  static_cast<double>(grant));
        const Tick modulated = grant + bus.serializationTime(16);
        EXPECT_EQ(modulated, grant + 200u);
        for (topology::ClusterId k = 0; k < kClusters; ++k) {
            EXPECT_EQ(heard[k], modulated + (kClusters - src + k) * kHop)
                << "snooper " << k;
            EXPECT_LT(heard[k] - modulated, 2 * kClusters * kHop);
        }
    }
}

TEST(BroadcastBus, SteadyBroadcastsDoNotAllocate)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    std::size_t delivered = 0;
    bus.setDeliver([&](const Message &, topology::ClusterId) {
        ++delivered;
    });
    // The first broadcast sizes the bus's pools and the event kernel's.
    bus.broadcast(invalidate(5));
    eq.run();

    // Each delivery event captures an in-flight slot, not the message,
    // so it fits the kernel's inline capture: 100 broadcasts, 6,400
    // deliveries, allocate less than once per broadcast.
    const std::size_t before = test::allocations.load();
    for (std::uint64_t i = 0; i < 100; ++i)
        bus.broadcast(invalidate(static_cast<topology::ClusterId>(i % 64),
                                 i));
    eq.run();
    EXPECT_LT(test::allocations.load() - before, 100u);
    EXPECT_EQ(delivered, 101u * 64);
    EXPECT_EQ(bus.broadcastsSent(), 101u);
}

TEST(BroadcastBus, RejectsTinyRing)
{
    EventQueue eq;
    EXPECT_THROW(BroadcastBus(eq, sim::coronaClock(), 1),
                 std::invalid_argument);
}

} // namespace
