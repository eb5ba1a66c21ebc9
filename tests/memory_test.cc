/**
 * @file
 * Unit tests for the memory system: DRAM mats, MSHR file, memory
 * controllers, and the OCM/ECM system arithmetic (Table 4).
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.hh"
#include "memory/dram.hh"
#include "memory/ecm.hh"
#include "memory/memory_controller.hh"
#include "memory/mshr.hh"
#include "memory/ocm.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;
using memory::DramModule;
using memory::EcmSystem;
using memory::MemoryController;
using memory::MshrFile;
using memory::OcmSystem;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;

TEST(Dram, MatMappingAndConcurrency)
{
    DramModule dram;
    // Consecutive lines hit different mats (single-mat line reads).
    EXPECT_NE(dram.matOf(0), dram.matOf(64));
    // Accesses to distinct mats at the same tick do not conflict.
    const Tick a = dram.access(0, 1000);
    const Tick b = dram.access(64, 1000);
    EXPECT_EQ(a, 1000u + 4000u);
    EXPECT_EQ(b, 1000u + 4000u);
    EXPECT_EQ(dram.matConflicts(), 0u);
}

TEST(Dram, SameMatAccessesSerialize)
{
    DramModule dram;
    const Tick first = dram.access(0, 0);
    const Tick second = dram.access(0, 100); // Same line -> same mat.
    EXPECT_EQ(first, 4000u);
    EXPECT_EQ(second, 8000u);
    EXPECT_EQ(dram.matConflicts(), 1u);
    EXPECT_EQ(dram.accesses(), 2u);
}

TEST(Dram, EnergyAccounting)
{
    memory::DramParams params;
    params.access_energy_pj = 10.0;
    DramModule dram(params);
    for (int i = 0; i < 1000; ++i)
        dram.access(static_cast<topology::Addr>(i) * 64, 0);
    EXPECT_NEAR(dram.energyJ(), 1000 * 10e-12, 1e-15);
}

TEST(Dram, RejectsBadParams)
{
    memory::DramParams bad;
    bad.mats = 0;
    EXPECT_THROW(DramModule{bad}, std::invalid_argument);
}

using Attach = MshrFile::Attach;

TEST(Mshr, AllocateTrackRetire)
{
    MshrFile mshrs(4);
    int woken = 0;
    EXPECT_EQ(mshrs.attach(0x1000, 10, [&] { ++woken; }),
              Attach::Allocated);
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_EQ(mshrs.attach(0x1000, 20, [&] { ++woken; }),
              Attach::Coalesced);
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_EQ(mshrs.coalesced(), 1u) << "only the secondary miss counts";
    mshrs.retire(0x1000, 50);
    EXPECT_EQ(woken, 2);
    EXPECT_EQ(mshrs.inUse(), 0u);
    // The lifetime runs from the allocating attach, not the coalesced
    // one.
    EXPECT_DOUBLE_EQ(mshrs.lifetime().mean(), 40.0);
}

TEST(Mshr, CapacityBoundsAllocation)
{
    MshrFile mshrs(2);
    EXPECT_EQ(mshrs.attach(0x0, 0, [] {}), Attach::Allocated);
    EXPECT_EQ(mshrs.attach(0x40, 0, [] {}), Attach::Allocated);
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.attach(0x80, 0, [] {}), Attach::Full);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    // A full file still coalesces onto its in-flight lines.
    EXPECT_EQ(mshrs.attach(0x40, 0, [] {}), Attach::Coalesced);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    EXPECT_EQ(mshrs.coalesced(), 1u);
}

TEST(Mshr, FullLeavesTheWakerCallable)
{
    MshrFile mshrs(1);
    ASSERT_EQ(mshrs.attach(0x0, 0, [] {}), Attach::Allocated);
    int woken = 0;
    MshrFile::WakeFn waker = [&] { ++woken; };
    EXPECT_EQ(mshrs.attach(0x40, 0, std::move(waker)), Attach::Full);
    ASSERT_TRUE(waker);
    waker();
    EXPECT_EQ(woken, 1);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    // The rejected waker is not run by the fill of another line.
    mshrs.retire(0x0, 5);
    EXPECT_EQ(woken, 1);
}

TEST(Mshr, OnFreeFiresAtRetire)
{
    MshrFile mshrs(1);
    int freed = 0;
    mshrs.onFree([&] { ++freed; });
    ASSERT_EQ(mshrs.attach(0x0, 0, [] {}), Attach::Allocated);
    mshrs.retire(0x0, 10);
    EXPECT_EQ(freed, 1);
}

TEST(Mshr, ScrambledRetiresKeepEveryOtherLineTracked)
{
    // Fill the file, then retire lines in a scrambled order: each
    // swap-remove moves the last tag, and every line must keep its own
    // slot (its own wakers) wherever its tag ends up.
    constexpr std::size_t kLines = 16;
    MshrFile mshrs(kLines);
    std::vector<int> woken(kLines, 0);
    std::vector<int> attached(kLines, 0);
    const auto lineOf = [](std::size_t i) {
        return static_cast<topology::Addr>(0x40 * (i + 1));
    };
    const auto attach = [&](std::size_t i) {
        ++attached[i];
        return mshrs.attach(lineOf(i), 0, [&woken, i] { ++woken[i]; });
    };
    for (std::size_t i = 0; i < kLines; ++i)
        ASSERT_EQ(attach(i), Attach::Allocated);

    std::vector<bool> live(kLines, true);
    for (std::size_t k = 0; k < kLines; ++k) {
        const std::size_t victim = (k * 7 + 3) % kLines;
        mshrs.retire(lineOf(victim), 1);
        live[victim] = false;
        EXPECT_EQ(woken[victim], attached[victim]) << "line " << victim;
        for (std::size_t i = 0; i < kLines; ++i) {
            if (live[i]) {
                EXPECT_EQ(attach(i), Attach::Coalesced) << "line " << i;
                EXPECT_EQ(woken[i], 0) << "line " << i;
            }
        }
        EXPECT_EQ(mshrs.inUse(), kLines - k - 1);
    }
    for (std::size_t i = 0; i < kLines; ++i)
        EXPECT_EQ(attach(i), Attach::Allocated) << "line " << i;
    EXPECT_TRUE(mshrs.full());
}

TEST(Mshr, WakersRunPrimaryFirstThenInAttachOrder)
{
    MshrFile mshrs(4);
    std::vector<int> order;
    ASSERT_EQ(mshrs.attach(0x80, 0, [] {}), Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, [&] { order.push_back(0); }),
              Attach::Allocated);
    for (int i = 1; i <= 4; ++i) {
        ASSERT_EQ(mshrs.attach(0x40, 0, [&order, i] { order.push_back(i); }),
                  Attach::Coalesced);
    }
    mshrs.retire(0x40, 10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mshr, OnFreeRunsFirstAndMayTakeTheFreedSlot)
{
    MshrFile mshrs(1);
    std::vector<int> order;
    bool reissued = false;
    mshrs.onFree([&] {
        order.push_back(-1);
        if (reissued)
            return;
        // A stalled miss re-issues into the slot that just freed.
        reissued = true;
        EXPECT_EQ(mshrs.attach(0x80, 7, [&] { order.push_back(9); }),
                  Attach::Allocated);
    });
    ASSERT_EQ(mshrs.attach(0x40, 0, [&] { order.push_back(0); }),
              Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, [&] { order.push_back(1); }),
              Attach::Coalesced);
    mshrs.retire(0x40, 10);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_TRUE(mshrs.full());

    mshrs.retire(0x80, 20);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, -1, 9}));
    EXPECT_EQ(mshrs.inUse(), 0u);
}

TEST(Mshr, WakerMayReallocateItsOwnLine)
{
    MshrFile mshrs(2);
    std::vector<Attach> outcomes;
    int later = 0;
    ASSERT_EQ(mshrs.attach(0x40, 0, [&] {
        outcomes.push_back(mshrs.attach(0x40, 5, [&] { ++later; }));
    }), Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, [&] {
        outcomes.push_back(mshrs.attach(0x40, 5, [&] { ++later; }));
    }), Attach::Coalesced);
    mshrs.retire(0x40, 5);
    // The first waker finds the line gone and allocates it afresh; the
    // second joins that new miss.
    EXPECT_EQ(outcomes,
              (std::vector<Attach>{Attach::Allocated, Attach::Coalesced}));
    EXPECT_EQ(later, 0);
    EXPECT_EQ(mshrs.inUse(), 1u);
    mshrs.retire(0x40, 9);
    EXPECT_EQ(later, 2);
}

TEST(Mshr, ResetDestroysEachPendingWakerOnce)
{
    MshrFile mshrs(4);
    const auto token = std::make_shared<int>(0);
    for (topology::Addr line = 0; line < 3; ++line) {
        for (int i = 0; i < 3; ++i)
            mshrs.attach(line * 0x40, 0, [token] { ++*token; });
    }
    EXPECT_EQ(token.use_count(), 10);
    mshrs.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 0) << "reset destroys wakers without running them";
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_EQ(mshrs.coalesced(), 0u);

    // The reset file allocates from scratch and wakes only new waiters.
    EXPECT_EQ(mshrs.attach(0x0, 0, [token] { ++*token; }),
              Attach::Allocated);
    mshrs.retire(0x0, 1);
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Mshr, MisusePanics)
{
    MshrFile mshrs(2);
    EXPECT_THROW(mshrs.retire(0x0, 0), sim::PanicError);
    ASSERT_EQ(mshrs.attach(0x0, 0, [] {}), Attach::Allocated);
    mshrs.retire(0x0, 0);
    EXPECT_THROW(mshrs.retire(0x0, 0), sim::PanicError);
    EXPECT_THROW(MshrFile(0), std::invalid_argument);
}

TEST(OcmSystem, Table4Numbers)
{
    const OcmSystem ocm;
    EXPECT_EQ(ocm.config().controllers, 64u);
    EXPECT_DOUBLE_EQ(ocm.perControllerBandwidth(), 160e9);
    EXPECT_NEAR(ocm.aggregateBandwidth(), 10.24e12, 1e3);
    EXPECT_EQ(ocm.totalFibers(), 256u);
    // Section 3.3: ~6.4 W at 0.078 mW/Gb/s (10.24 TB/s: 6.39 W).
    EXPECT_NEAR(ocm.interconnectPowerW(), 6.39, 0.05);
    const auto params = ocm.controllerParams();
    EXPECT_EQ(params.access_latency, 20000u);
    EXPECT_EQ(params.name, "OCM");
}

TEST(OcmSystem, ChainDelayGrowsGently)
{
    const OcmSystem ocm;
    EXPECT_EQ(ocm.chainDelay(0), 0u);
    EXPECT_LT(ocm.chainDelay(3), 1000u); // Sub-ns even at chain end.
    EXPECT_THROW(ocm.chainDelay(99), std::out_of_range);
}

TEST(EcmSystem, Table4Numbers)
{
    const EcmSystem ecm;
    EXPECT_EQ(ecm.config().controllers, 64u);
    EXPECT_EQ(ecm.config().total_pins, 1536u);
    EXPECT_DOUBLE_EQ(ecm.perControllerBandwidth(), 15e9);
    EXPECT_NEAR(ecm.aggregateBandwidth(), 0.96e12, 1e3);
    // ECM at its own 0.96 TB/s burns ~15 W of link power...
    EXPECT_NEAR(ecm.interconnectPowerW(), 15.36, 0.1);
    // ...and matching the OCM's 10.24 TB/s would take >160 W
    // (Section 3.3's infeasibility argument).
    EXPECT_GT(ecm.powerToMatchW(10.24e12), 160.0);
    const auto params = ecm.controllerParams();
    EXPECT_EQ(params.access_latency, 20000u);
    EXPECT_EQ(params.name, "ECM");
}

class McFixture : public ::testing::Test
{
  protected:
    Message
    request(MsgKind kind, topology::ClusterId src, std::uint64_t tag)
    {
        Message msg;
        msg.src = src;
        msg.dst = 7;
        msg.kind = kind;
        msg.tag = tag;
        return msg;
    }

    EventQueue eq_;
};

TEST_F(McFixture, ReadLatencyIsAccessPlusSerialization)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::vector<Tick> completions;
    Message resp_seen;
    mc.access(request(MsgKind::ReadReq, 3, 0xAA), 0x1000,
              [&](const Message &resp) {
        completions.push_back(eq_.now());
        resp_seen = resp;
    });
    eq_.run();
    ASSERT_EQ(completions.size(), 1u);
    // 20 ns access dominates (serialization 64 B / 160 GB/s = 400 ps).
    EXPECT_GE(completions[0], 20000u);
    EXPECT_LE(completions[0], 21000u);
    EXPECT_EQ(resp_seen.kind, MsgKind::ReadResp);
    EXPECT_EQ(resp_seen.src, 7u);
    EXPECT_EQ(resp_seen.dst, 3u);
    EXPECT_EQ(resp_seen.tag, 0xAAu);
}

TEST_F(McFixture, RejectsBandwidthsOutsideTheTickRange)
{
    // The system's controllers: both paper bandwidths are accepted.
    const memory::MemoryParams ocm = OcmSystem().controllerParams();
    EXPECT_NO_THROW(MemoryController(eq_, 0, ocm));
    EXPECT_NO_THROW(
        MemoryController(eq_, 0, EcmSystem().controllerParams()));
    // memory_bandwidth_scale = 1e-17 on OCM: one 64-byte line would
    // take ~4e19 ticks, past 2^63. Infinity would take 0 ticks.
    for (const double bandwidth :
         {ocm.bytes_per_second * 1e-17,
          std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bandwidth);
        memory::MemoryParams params = ocm;
        params.bytes_per_second = bandwidth;
        try {
            MemoryController mc(eq_, 0, params);
            ADD_FAILURE() << "bandwidth accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("bandwidth"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(McFixture, WriteProducesAck)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    MsgKind kind = MsgKind::ReadReq;
    mc.access(request(MsgKind::WriteReq, 4, 1), 0x2000,
              [&](const Message &resp) { kind = resp.kind; });
    eq_.run();
    EXPECT_EQ(kind, MsgKind::WriteAck);
}

TEST_F(McFixture, ThroughputBoundedByLinkRate)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    int done = 0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64,
                  [&](const Message &) { ++done; });
    }
    eq_.run();
    EXPECT_EQ(done, n);
    EXPECT_EQ(mc.accesses(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(mc.bytesMoved(), static_cast<std::uint64_t>(n) * 64);
    // ECM: 64 B / 15 GB/s = ~4.27 ns serialization per line; 100 lines
    // take >= 426 ns regardless of the 20 ns access pipeline.
    EXPECT_GE(eq_.now(), 426000u);
}

TEST_F(McFixture, QueueDepthObserved)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    for (int i = 0; i < 10; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64,
                  [](const Message &) {});
    }
    eq_.run();
    EXPECT_GE(mc.peakQueueDepth(), 8u);
    EXPECT_GT(mc.serviceTime().mean(), 20000.0);
}

TEST_F(McFixture, SteadyRequestsDoNotAllocate)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    std::uint64_t next = 0;
    int done = 0;
    // Eight requests at once: the link queues seven behind the first.
    const auto burst = [&] {
        for (int i = 0; i < 8; ++i, ++next) {
            mc.access(request(MsgKind::ReadReq, 1, next),
                      static_cast<topology::Addr>(next) * 64,
                      [&done](const Message &) { ++done; });
        }
        eq_.run();
    };
    // The first burst sizes the controller's request slots and queue
    // and the event kernel's pool.
    burst();
    EXPECT_EQ(mc.peakQueueDepth(), 7u);
    const std::size_t before = test::allocations.load();
    for (int round = 0; round < 100; ++round)
        burst();
    EXPECT_EQ(test::allocations.load() - before, 0u);
    EXPECT_EQ(done, 808);
    EXPECT_EQ(mc.accesses(), 808u);
    EXPECT_EQ(mc.peakQueueDepth(), 7u);
    EXPECT_EQ(mc.queueDepth(), 0u);
}

TEST_F(McFixture, CompletionMayIssueMoreRequests)
{
    // Each completion issues two more requests until 40 are issued: the
    // slot it frees is taken again and the slots grow while the
    // completion runs.
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::uint64_t issued = 0;
    std::vector<std::uint64_t> completed;
    std::function<void(const Message &)> on_done;
    const auto issue = [&] {
        mc.access(request(MsgKind::ReadReq, 1, issued),
                  static_cast<topology::Addr>(issued) * 64,
                  [&on_done](const Message &resp) { on_done(resp); });
        ++issued;
    };
    on_done = [&](const Message &resp) {
        EXPECT_EQ(resp.kind, MsgKind::ReadResp);
        completed.push_back(resp.tag);
        for (int k = 0; k < 2 && issued < 40; ++k)
            issue();
    };
    issue();
    eq_.run();
    ASSERT_EQ(completed.size(), 40u);
    EXPECT_EQ(std::set<std::uint64_t>(completed.begin(), completed.end())
                  .size(),
              40u)
        << "every request completes exactly once";
    EXPECT_EQ(mc.accesses(), 40u);
    EXPECT_EQ(mc.queueDepth(), 0u);
}

TEST_F(McFixture, ResetDestroysEachQueuedAndInFlightCallbackOnce)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    const auto token = std::make_shared<int>(0);
    for (std::uint64_t i = 0; i < 6; ++i) {
        mc.access(request(MsgKind::ReadReq, 1, i),
                  static_cast<topology::Addr>(i) * 64,
                  [token](const Message &) { ++*token; });
    }
    // One ECM line takes 4267 ticks on the link: by 10 ns three
    // requests are past it, in flight, and three still queue.
    eq_.run(10000);
    EXPECT_EQ(mc.queueDepth(), 3u);
    EXPECT_EQ(token.use_count(), 7);
    mc.reset();
    eq_.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 0) << "reset destroys completions without running them";
    EXPECT_EQ(mc.queueDepth(), 0u);
    EXPECT_EQ(mc.peakQueueDepth(), 0u);

    // The reset controller serves new requests only.
    mc.access(request(MsgKind::ReadReq, 1, 9), 0,
              [token](const Message &) { ++*token; });
    eq_.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(mc.accesses(), 1u);
}

TEST_F(McFixture, NonMemoryRequestPanics)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    EXPECT_THROW(
        mc.access(request(MsgKind::ReadResp, 1, 0), 0,
                  [](const Message &) {}),
        sim::PanicError);
}

TEST(MemoryParams, OcmVsEcmContrast)
{
    // Table 4's core contrast: 10x+ bandwidth at equal latency.
    const auto ocm = memory::ocmParams();
    const auto ecm = memory::ecmParams();
    EXPECT_NEAR(ocm.bytes_per_second / ecm.bytes_per_second, 10.67, 0.1);
    EXPECT_EQ(ocm.access_latency, ecm.access_latency);
}

} // namespace
