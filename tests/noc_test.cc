/**
 * @file
 * Unit tests for NoC primitives: message sizing, credit buffers, the
 * ring FIFO, and the ideal interconnect reference. The mesh router's
 * links (serialization, latency, back-pressure) are tested in
 * mesh_test.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/buffer.hh"
#include "noc/ideal_interconnect.hh"
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
