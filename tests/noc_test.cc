/**
 * @file
 * Unit tests for NoC primitives: message sizing, credit buffers, the
 * ring FIFO, bandwidth links (serialization, latency, back-pressure),
 * and the ideal interconnect reference.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/buffer.hh"
#include "noc/ideal_interconnect.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;
using noc::CreditBuffer;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;

Message
makeMsg(topology::ClusterId src, topology::ClusterId dst,
        MsgKind kind = MsgKind::ReadReq, std::uint64_t tag = 0)
{
    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.kind = kind;
    msg.tag = tag;
    return msg;
}

TEST(Message, WireSizes)
{
    EXPECT_EQ(noc::wireBytes(MsgKind::ReadReq), 16u);
    EXPECT_EQ(noc::wireBytes(MsgKind::WriteAck), 16u);
    EXPECT_EQ(noc::wireBytes(MsgKind::Invalidate), 16u);
    EXPECT_EQ(noc::wireBytes(MsgKind::WriteReq), 80u);
    EXPECT_EQ(noc::wireBytes(MsgKind::ReadResp), 80u);
    EXPECT_TRUE(noc::carriesData(MsgKind::ReadResp));
    EXPECT_FALSE(noc::carriesData(MsgKind::ReadReq));
    EXPECT_EQ(noc::to_string(MsgKind::ReadResp), "ReadResp");
}

TEST(CreditBuffer, CreditsTrackOccupancy)
{
    CreditBuffer buf(2);
    EXPECT_EQ(buf.credits(), 2u);
    buf.push(makeMsg(0, 1));
    EXPECT_EQ(buf.credits(), 1u);
    buf.push(makeMsg(0, 2));
    EXPECT_EQ(buf.credits(), 0u);
    EXPECT_FALSE(buf.hasCredit());
    buf.pop();
    EXPECT_EQ(buf.credits(), 1u);
}

TEST(CreditBuffer, ReservationsConsumeCredits)
{
    CreditBuffer buf(1);
    EXPECT_TRUE(buf.reserve());
    EXPECT_FALSE(buf.hasCredit());
    EXPECT_FALSE(buf.reserve());
    buf.push(makeMsg(0, 1), /*reserved=*/true);
    EXPECT_EQ(buf.size(), 1u);
    buf.pop();
    EXPECT_TRUE(buf.reserve());
    buf.unreserve();
    EXPECT_TRUE(buf.hasCredit());
}

TEST(CreditBuffer, FifoOrderAndDrainCallback)
{
    CreditBuffer buf(4);
    int drains = 0;
    buf.onDrain([&] { ++drains; });
    buf.push(makeMsg(0, 1, MsgKind::ReadReq, 111));
    buf.push(makeMsg(0, 1, MsgKind::ReadReq, 222));
    EXPECT_EQ(buf.pop().tag, 111u);
    EXPECT_EQ(buf.pop().tag, 222u);
    EXPECT_EQ(drains, 2);
}

TEST(CreditBuffer, PanicsOnMisuse)
{
    CreditBuffer buf(1);
    EXPECT_THROW(buf.pop(), sim::PanicError);
    EXPECT_THROW(buf.front(), sim::PanicError);
    EXPECT_THROW(buf.unreserve(), sim::PanicError);
    buf.push(makeMsg(0, 1));
    EXPECT_THROW(buf.push(makeMsg(0, 1)), sim::PanicError);
    EXPECT_THROW(CreditBuffer(0), std::invalid_argument);
}

TEST(CreditBuffer, OccupancyStatistics)
{
    CreditBuffer buf(4);
    buf.push(makeMsg(0, 1));
    buf.push(makeMsg(0, 1));
    EXPECT_EQ(buf.peakOccupancy(), 2u);
    buf.pop();
    buf.pop();
    EXPECT_EQ(buf.peakOccupancy(), 2u);
}

TEST(RingFifo, KeepsFifoOrderAcrossWrapAndGrowth)
{
    // Cycle the ring so its head sits mid-storage, then grow it while
    // wrapped: the doubled ring must keep the original order.
    noc::RingFifo<int> fifo;
    int pushed = 0;
    int popped = 0;
    for (int i = 0; i < 5; ++i)
        fifo.push_back(pushed++);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(fifo.front(), popped++);
        fifo.pop_front();
    }
    for (int i = 0; i < 20; ++i)
        fifo.push_back(pushed++);
    EXPECT_EQ(fifo.size(), 22u);
    while (!fifo.empty()) {
        EXPECT_EQ(fifo.front(), popped++);
        fifo.pop_front();
    }
    EXPECT_EQ(popped, pushed);

    fifo.push_back(7);
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
    fifo.push_back(8);
    EXPECT_EQ(fifo.front(), 8);
}

TEST(BandwidthLink, SerializationTime)
{
    EventQueue eq;
    // 32 B per 200 ps clock = 160 GB/s.
    noc::BandwidthLink link(eq, 160e9, 0, 4);
    EXPECT_EQ(link.serializationTime(32), 200u);
    EXPECT_EQ(link.serializationTime(64), 400u);
    EXPECT_EQ(link.serializationTime(80), 500u);
    EXPECT_EQ(link.serializationTime(1), 7u); // ceil, never 0
}

TEST(BandwidthLink, DeliversAfterSerializationPlusLatency)
{
    EventQueue eq;
    noc::BandwidthLink link(eq, 160e9, 1000, 4);
    std::vector<Tick> deliveries;
    link.setSink([&](const Message &) { deliveries.push_back(eq.now()); });
    ASSERT_TRUE(link.trySend(makeMsg(0, 1, MsgKind::ReadReq))); // 16 B
    eq.run();
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0], link.serializationTime(16) + 1000);
}

TEST(BandwidthLink, BackToBackMessagesSerialize)
{
    EventQueue eq;
    noc::BandwidthLink link(eq, 160e9, 0, 4);
    std::vector<Tick> deliveries;
    link.setSink([&](const Message &) { deliveries.push_back(eq.now()); });
    ASSERT_TRUE(link.trySend(makeMsg(0, 1, MsgKind::ReadResp))); // 80 B
    ASSERT_TRUE(link.trySend(makeMsg(0, 1, MsgKind::ReadResp)));
    eq.run();
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0], 500u);
    EXPECT_EQ(deliveries[1], 1000u); // Second waits for the wire.
    EXPECT_EQ(link.bytesSent(), 160u);
    EXPECT_EQ(link.messagesSent(), 2u);
    EXPECT_EQ(link.busyTime(), 1000u);
}

TEST(BandwidthLink, QueueCapacityBoundsAcceptance)
{
    EventQueue eq;
    noc::BandwidthLink link(eq, 160e9, 0, 2);
    link.setSink([](const Message &) {});
    // First send starts transmitting immediately (leaves the queue), so
    // queue slots remain for two more.
    EXPECT_TRUE(link.trySend(makeMsg(0, 1)));
    EXPECT_TRUE(link.trySend(makeMsg(0, 1)));
    EXPECT_TRUE(link.trySend(makeMsg(0, 1)));
    EXPECT_FALSE(link.trySend(makeMsg(0, 1)));
    eq.run();
    EXPECT_EQ(link.messagesSent(), 3u);
}

TEST(BandwidthLink, DownstreamCreditsStallTransmission)
{
    EventQueue eq;
    CreditBuffer inbox(1);
    noc::BandwidthLink link(eq, 160e9, 0, 4);
    link.setDownstream(&inbox);
    link.setSink([&](const Message &msg) {
        inbox.push(msg, /*reserved=*/true);
    });
    ASSERT_TRUE(link.trySend(makeMsg(0, 1)));
    ASSERT_TRUE(link.trySend(makeMsg(0, 1)));
    eq.run();
    // Only the first message could reserve the single downstream slot.
    EXPECT_EQ(inbox.size(), 1u);
    EXPECT_EQ(link.messagesSent(), 1u);
    // Freeing the slot resumes the stalled link.
    inbox.pop();
    eq.run();
    EXPECT_EQ(inbox.size(), 1u);
    EXPECT_EQ(link.messagesSent(), 2u);
}

TEST(BandwidthLink, OnSpaceFiresWhenQueueDrains)
{
    EventQueue eq;
    noc::BandwidthLink link(eq, 160e9, 0, 1);
    int space_events = 0;
    link.setSink([](const Message &) {});
    link.onSpace([&] { ++space_events; });
    ASSERT_TRUE(link.trySend(makeMsg(0, 1)));
    eq.run();
    EXPECT_GE(space_events, 1);
}

TEST(BandwidthLink, RejectsBadConfig)
{
    EventQueue eq;
    EXPECT_THROW(noc::BandwidthLink(eq, 0.0, 0, 1), std::invalid_argument);
    EXPECT_THROW(noc::BandwidthLink(eq, 1e9, 0, 0), std::invalid_argument);
}

TEST(IdealInterconnect, FixedLatencyAndStats)
{
    EventQueue eq;
    noc::IdealInterconnect net(eq, 1600);
    std::vector<Tick> deliveries;
    net.setDeliver([&](const Message &) { deliveries.push_back(eq.now()); });
    net.send(makeMsg(3, 9, MsgKind::ReadResp));
    net.send(makeMsg(5, 9, MsgKind::ReadReq));
    eq.run();
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0], 1600u);
    EXPECT_EQ(deliveries[1], 1600u);
    EXPECT_EQ(net.netStats().messages.value(), 2u);
    EXPECT_EQ(net.netStats().bytes.value(), 96u);
    EXPECT_DOUBLE_EQ(net.netStats().latency.mean(), 1600.0);
    EXPECT_EQ(net.hopCount(3, 9), 1u);
    EXPECT_EQ(net.name(), "Ideal");
}

} // namespace
