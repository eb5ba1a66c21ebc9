/**
 * @file
 * Unit and property tests for the MWSR optical channel and the full
 * photonic crossbar (Section 3.2.1): single-clock line serialization,
 * propagation bounds, bandwidth ceilings, per-source ordering, and
 * flow-control back-pressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "xbar/optical_channel.hh"
#include "xbar/optical_xbar.hh"

namespace {

using namespace corona;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;
using xbar::ChannelParams;
using xbar::OpticalChannel;
using xbar::OpticalCrossbar;

constexpr Tick kClock = 200;

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

TEST(OpticalChannel, BandwidthIs2560Gbps)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    // 64 B per 5 GHz clock = 320 GB/s = 2.56 Tb/s (Section 3.2.1).
    EXPECT_DOUBLE_EQ(channel.bandwidthBytesPerSecond(), 320e9);
}

TEST(OpticalChannel, CacheLineSerializesInOneClock)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    // "A 64-byte cache line can be sent ... in one 5 GHz clock."
    EXPECT_EQ(channel.serializationTime(64), kClock);
    // With the 16 B header it takes a second clock.
    EXPECT_EQ(channel.serializationTime(80), 2 * kClock);
    EXPECT_EQ(channel.serializationTime(16), kClock);
}

TEST(OpticalChannel, PropagationAtMostEightClocks)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    for (topology::ClusterId src = 1; src < 64; ++src) {
        const Tick prop = channel.propagationTime(src);
        EXPECT_LE(prop, 8 * kClock + kClock)
            << "propagation (incl. wrap retiming) from " << src;
        EXPECT_GT(prop, 0u);
    }
    // Nearest upstream neighbour (cluster 63 -> home 0) is one hop and
    // crosses the wrap, paying one clock of retiming.
    EXPECT_EQ(channel.propagationTime(63), 25u + kClock);
}

TEST(OpticalChannel, DeliversWithCorrectLatency)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 8);
    std::vector<Tick> deliveries;
    channel.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    channel.send(makeMsg(4, 8, MsgKind::ReadReq));
    eq.run();
    ASSERT_EQ(deliveries.size(), 1u);
    // token wait (4 hops: token starts at home 8... within a loop) +
    // 1 clock serialization + 4 hops propagation + drain alignment.
    EXPECT_LE(deliveries[0], channel.arbiter().loopTime() + kClock +
                                 4 * 25 + 2 * kClock);
}

TEST(OpticalChannel, PerSourceOrderingPreserved)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 7);
    std::vector<std::uint64_t> tags;
    channel.setDeliver([&](const Message &msg) {
        tags.push_back(msg.tag);
    });
    for (std::uint64_t i = 0; i < 10; ++i)
        channel.send(makeMsg(3, 7, MsgKind::ReadReq, i));
    eq.run();
    ASSERT_EQ(tags.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(tags[i], i);
}

TEST(OpticalChannel, RejectsForeignDestination)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 7);
    EXPECT_THROW(channel.send(makeMsg(3, 8)), sim::PanicError);
}

TEST(OpticalChannel, ThroughputApproachesOneLinePerClock)
{
    // "When many clusters want the same channel and contention is
    // high, token transfer time is low and channel utilization is
    // high" (Section 3.2.3): with all 63 foreign clusters contending,
    // the token only ever moves neighbour to neighbour.
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    int delivered = 0;
    channel.setDeliver([&](const Message &) { ++delivered; });
    const int per_sender = 10;
    for (int i = 0; i < per_sender; ++i) {
        for (topology::ClusterId s = 1; s < 64; ++s)
            channel.send(makeMsg(s, 0, MsgKind::ReadResp));
    }
    eq.run();
    EXPECT_EQ(delivered, 63 * per_sender);
    // 630 messages x 2 clocks of modulation = 1260 clocks minimum;
    // ring-order handoffs add ~8 clocks per 63-message round, so the
    // total must stay within ~15% of the serialization bound.
    const double clocks = static_cast<double>(eq.now()) / kClock;
    EXPECT_GE(clocks, 1260);
    EXPECT_LT(clocks, 1260 * 1.15);
}

TEST(OpticalChannel, BatchHoldsTokenAcrossBacklog)
{
    // A lone sender with a queued backlog sends max_batch messages per
    // grant instead of paying a full token revolution per message.
    EventQueue eq;
    xbar::ChannelParams params;
    params.max_batch = 4;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    channel.setDeliver([](const Message &) {});
    for (int i = 0; i < 8; ++i)
        channel.send(makeMsg(16, 0, MsgKind::ReadResp));
    eq.run();
    // 8 messages in 2 batches: 2 grants, not 8.
    EXPECT_EQ(channel.arbiter().grants(), 2u);
}

TEST(OpticalChannel, BatchRespectsLimitUnderContention)
{
    EventQueue eq;
    xbar::ChannelParams params;
    params.max_batch = 2;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    std::vector<unsigned> sources;
    channel.setDeliver([&](const Message &msg) {
        sources.push_back(static_cast<unsigned>(msg.src));
    });
    // Two contending senders with deep backlogs must interleave in
    // runs of at most max_batch.
    for (int i = 0; i < 6; ++i) {
        channel.send(makeMsg(10, 0, MsgKind::ReadResp));
        channel.send(makeMsg(40, 0, MsgKind::ReadResp));
    }
    eq.run();
    ASSERT_EQ(sources.size(), 12u);
    unsigned run_length = 1;
    for (std::size_t i = 1; i < sources.size(); ++i) {
        run_length = sources[i] == sources[i - 1] ? run_length + 1 : 1;
        EXPECT_LE(run_length, 2u)
            << "batch limit must bound monopolization";
    }
}

// -------------------------------------------------------------------
// Golden delivery order under flow control: one channel with a
// two-deep home buffer and batches of three, fed staggered bursts from
// 20 sources, so sources park waiting for credit and batches end early
// when the buffer has none. The constants lock the delivery order and
// the sampled source backlog.
// -------------------------------------------------------------------

struct ChannelRun
{
    std::uint64_t delivered = 0;
    /** FNV-1a over the ordered (tick, src, tag) deliveries and the
     * sampled queuedMessages(). */
    std::uint64_t digest = 14695981039346656037ull;
    std::size_t peakSink = 0;
    std::size_t peakQueued = 0;
};

void
fnv1a(std::uint64_t &hash, std::uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        hash ^= (word >> (8 * b)) & 0xff;
        hash *= 1099511628211ull;
    }
}

constexpr topology::ClusterId kGoldenHome = 9;

ChannelParams
goldenParams()
{
    ChannelParams params;
    params.sink_buffer_depth = 2;
    params.max_batch = 3;
    return params;
}

/** Schedule the golden traffic and the backlog samples into @p run;
 * @return the number of messages sent. */
std::uint64_t
scheduleGoldenTraffic(EventQueue &eq, OpticalChannel &channel,
                      ChannelRun &run)
{
    channel.setDeliver([&eq, &run](const Message &msg) {
        ++run.delivered;
        fnv1a(run.digest, eq.now());
        fnv1a(run.digest, msg.src);
        fnv1a(run.digest, msg.tag);
    });
    sim::Rng rng(1403);
    std::uint64_t next_tag = 0;
    for (int burst = 0; burst < 40; ++burst) {
        const auto src = static_cast<topology::ClusterId>(
            (kGoldenHome + 1 + 3 * rng.below(20)) % 64);
        const Tick at = rng.below(60) * kClock + rng.below(kClock);
        const auto count = 1 + rng.below(6);
        std::vector<Message> batch;
        for (std::uint64_t i = 0; i < count; ++i) {
            batch.push_back(makeMsg(src, kGoldenHome,
                                    rng.chance(0.5) ? MsgKind::ReadResp
                                                    : MsgKind::ReadReq,
                                    next_tag++));
        }
        eq.schedule(at, [&channel, batch] {
            for (const Message &msg : batch)
                channel.send(msg);
        });
    }
    for (Tick at = 0; at < 200 * kClock; at += 3 * kClock + 7) {
        eq.schedule(at, [&channel, &run] {
            fnv1a(run.digest, channel.queuedMessages());
            run.peakSink = std::max(run.peakSink, channel.sinkDepth());
            run.peakQueued =
                std::max(run.peakQueued, channel.queuedMessages());
        });
    }
    return next_tag;
}

TEST(OpticalChannel, GoldenOrderUnderCreditBackPressure)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, kGoldenHome,
                           goldenParams());

    ChannelRun first;
    const std::uint64_t sent = scheduleGoldenTraffic(eq, channel, first);
    eq.run();
    EXPECT_EQ(first.delivered, sent) << "every message delivered";
    EXPECT_EQ(first.delivered, 122u);
    EXPECT_EQ(first.digest, 15029384575443104519ull);
    EXPECT_EQ(channel.queuedMessages(), 0u);
    // The traffic must exercise flow control: the home buffer ran out
    // of credit while sources held a backlog.
    EXPECT_EQ(first.peakSink, goldenParams().sink_buffer_depth);
    EXPECT_GT(first.peakQueued, 2 * goldenParams().max_batch);
    EXPECT_GT(channel.arbiter().grants(),
              (sent + goldenParams().max_batch - 1) /
                  goldenParams().max_batch)
        << "some batches must end early for want of credit";

    // Stop a replay part-way, with messages queued at their sources,
    // and reset: a second full replay must not see any stale state.
    channel.reset();
    eq.reset();
    ChannelRun partial;
    scheduleGoldenTraffic(eq, channel, partial);
    eq.run(30 * kClock);
    EXPECT_GT(channel.queuedMessages(), 0u);
    EXPECT_LT(partial.delivered, sent);
    channel.reset();
    eq.reset();
    EXPECT_EQ(channel.queuedMessages(), 0u);
    EXPECT_EQ(channel.sinkDepth(), 0u);

    ChannelRun replay;
    scheduleGoldenTraffic(eq, channel, replay);
    eq.run();
    EXPECT_EQ(replay.delivered, first.delivered);
    EXPECT_EQ(replay.digest, first.digest);
}

TEST(OpticalXbar, AggregateBandwidthIs20TBps)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    EXPECT_NEAR(xbar.aggregateBandwidth(), 20.48e12, 1e6);
    EXPECT_NEAR(xbar.bisectionBandwidth(), 10.24e12, 1e6);
    EXPECT_EQ(xbar.name(), "XBar");
    EXPECT_EQ(xbar.clusters(), 64u);
    EXPECT_EQ(xbar.hopCount(3, 60), 1u);
}

TEST(OpticalXbar, AllPairsDeliver)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::map<std::pair<unsigned, unsigned>, int> received;
    xbar.setDeliver([&](const Message &msg) {
        ++received[{static_cast<unsigned>(msg.src),
                    static_cast<unsigned>(msg.dst)}];
    });
    int sent = 0;
    for (topology::ClusterId s = 0; s < 64; s += 7) {
        for (topology::ClusterId d = 0; d < 64; d += 5) {
            if (s == d)
                continue;
            xbar.send(makeMsg(s, d));
            ++sent;
        }
    }
    eq.run();
    EXPECT_EQ(xbar.netStats().messages.value(),
              static_cast<std::uint64_t>(sent));
    for (const auto &[pair, count] : received)
        EXPECT_EQ(count, 1);
}

TEST(OpticalXbar, ChannelsAreIndependent)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::vector<Tick> deliveries;
    xbar.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    // Saturate channel 0 from many sources, then send one message on
    // channel 32: the latter must not queue behind the former.
    for (int i = 0; i < 50; ++i)
        xbar.send(makeMsg(static_cast<topology::ClusterId>(i % 60), 0,
                          MsgKind::ReadResp));
    xbar.send(makeMsg(5, 32, MsgKind::ReadReq));
    eq.run();
    ASSERT_EQ(deliveries.size(), 51u);
    // The channel-32 message (unique 16 B read request) lands quickly.
    std::sort(deliveries.begin(), deliveries.end());
    EXPECT_LE(deliveries.front(), xbar.channel(32).arbiter().loopTime() +
                                      kClock + 8 * kClock + 2 * kClock);
}

TEST(OpticalXbar, TokenWaitStatisticsAccumulate)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    xbar.setDeliver([](const Message &) {});
    for (int i = 0; i < 20; ++i)
        xbar.send(makeMsg(static_cast<topology::ClusterId>(i), 42));
    eq.run();
    EXPECT_GT(xbar.meanTokenWait(), 0.0);
    EXPECT_EQ(xbar.channel(42).arbiter().grants(), 20u);
}

TEST(OpticalXbar, SendToBadDestinationPanics)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 8);
    EXPECT_THROW(xbar.send(makeMsg(0, 9)), sim::PanicError);
}

// -------------------------------------------------------------------
// Property sweep: conservation and bandwidth ceiling across loads.
// -------------------------------------------------------------------

class XbarLoad : public ::testing::TestWithParam<int>
{
};

TEST_P(XbarLoad, ConservesMessagesAndRespectsChannelCeiling)
{
    const int senders = GetParam();
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::uint64_t delivered_bytes = 0;
    int delivered = 0;
    xbar.setDeliver([&](const Message &msg) {
        ++delivered;
        delivered_bytes += msg.bytes();
    });
    const int per_sender = 50;
    for (int s = 0; s < senders; ++s) {
        for (int i = 0; i < per_sender; ++i) {
            xbar.send(makeMsg(
                static_cast<topology::ClusterId>(1 + s), 0,
                MsgKind::ReadResp));
        }
    }
    eq.run();
    EXPECT_EQ(delivered, senders * per_sender);
    // Achieved channel bandwidth can never exceed 320 GB/s.
    const double seconds = sim::ticksToSeconds(eq.now());
    const double achieved =
        static_cast<double>(delivered_bytes) / seconds;
    EXPECT_LE(achieved, 320e9 * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Senders, XbarLoad,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 63));

} // namespace
