/**
 * @file
 * Unit tests for the memory system: DRAM mats, MSHR file, memory
 * controllers, and the OCM/ECM system arithmetic (Table 4).
 */

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "memory/dram.hh"
#include "memory/ecm.hh"
#include "memory/memory_controller.hh"
#include "memory/mshr.hh"
#include "memory/ocm.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"

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
using Waiter = MshrFile::Waiter;

/** Threads in the order an MSHR file woke them. */
struct WakeLog
{
    std::vector<std::uint32_t> threads;
    std::vector<Tick> readies;

    void
    record(const Waiter &waiter)
    {
        threads.push_back(waiter.thread);
        readies.push_back(waiter.ready);
    }
};

TEST(Mshr, AllocateTrackRetire)
{
    MshrFile mshrs(4);
    WakeLog log;
    mshrs.onWake([&](const Waiter &w) { log.record(w); });
    EXPECT_EQ(mshrs.attach(0x1000, 10, {1, 10}), Attach::Allocated);
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_EQ(mshrs.attach(0x1000, 20, {2, 20}), Attach::Coalesced);
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_EQ(mshrs.coalesced(), 1u) << "only the secondary miss counts";
    mshrs.retire(0x1000, 50);
    EXPECT_EQ(log.threads, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(log.readies, (std::vector<Tick>{10, 20}))
        << "each waiter keeps its own ready tick";
    EXPECT_EQ(mshrs.inUse(), 0u);
    // The lifetime runs from the allocating attach, not the coalesced
    // one.
    EXPECT_DOUBLE_EQ(mshrs.lifetime().mean(), 40.0);
}

TEST(Mshr, CapacityBoundsAllocation)
{
    MshrFile mshrs(2);
    EXPECT_EQ(mshrs.attach(0x0, 0, {0, 0}), Attach::Allocated);
    EXPECT_EQ(mshrs.attach(0x40, 0, {1, 0}), Attach::Allocated);
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.attach(0x80, 0, {2, 0}), Attach::Full);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    // A full file still coalesces onto its in-flight lines.
    EXPECT_EQ(mshrs.attach(0x40, 0, {3, 0}), Attach::Coalesced);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    EXPECT_EQ(mshrs.coalesced(), 1u);
}

TEST(Mshr, FullQueuesNothing)
{
    MshrFile mshrs(1);
    WakeLog log;
    mshrs.onWake([&](const Waiter &w) { log.record(w); });
    ASSERT_EQ(mshrs.attach(0x0, 0, {1, 0}), Attach::Allocated);
    EXPECT_EQ(mshrs.attach(0x40, 0, {2, 0}), Attach::Full);
    EXPECT_EQ(mshrs.fullStalls(), 1u);
    // The rejected waiter is not woken by the fill of another line.
    mshrs.retire(0x0, 5);
    EXPECT_EQ(log.threads, (std::vector<std::uint32_t>{1}));
}

TEST(Mshr, OnFreeFiresAtRetire)
{
    MshrFile mshrs(1);
    int freed = 0;
    mshrs.onFree([&] { ++freed; });
    mshrs.onWake([](const Waiter &) {});
    ASSERT_EQ(mshrs.attach(0x0, 0, {0, 0}), Attach::Allocated);
    mshrs.retire(0x0, 10);
    EXPECT_EQ(freed, 1);
}

TEST(Mshr, ScrambledRetiresKeepEveryOtherLineTracked)
{
    // Fill the file, then retire lines in a scrambled order: every
    // line must keep its own entry (its own waiters) as the others
    // leave the index around it. Waiter i waits on line i.
    constexpr std::size_t kLines = 16;
    MshrFile mshrs(kLines);
    std::vector<int> woken(kLines, 0);
    std::vector<int> attached(kLines, 0);
    mshrs.onWake([&](const Waiter &w) { ++woken[w.thread]; });
    const auto lineOf = [](std::size_t i) {
        return static_cast<topology::Addr>(0x40 * (i + 1));
    };
    const auto attach = [&](std::size_t i) {
        ++attached[i];
        return mshrs.attach(lineOf(i), 0,
                            {static_cast<std::uint32_t>(i), 0});
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
    WakeLog log;
    mshrs.onWake([&](const Waiter &w) { log.record(w); });
    ASSERT_EQ(mshrs.attach(0x80, 0, {99, 0}), Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, {0, 0}), Attach::Allocated);
    for (std::uint32_t i = 1; i <= 4; ++i)
        ASSERT_EQ(mshrs.attach(0x40, 0, {i, 0}), Attach::Coalesced);
    mshrs.retire(0x40, 10);
    EXPECT_EQ(log.threads, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Mshr, OnFreeRunsFirstAndMayTakeTheFreedSlot)
{
    MshrFile mshrs(1);
    std::vector<int> order;
    bool reissued = false;
    mshrs.onWake([&](const Waiter &w) {
        order.push_back(static_cast<int>(w.thread));
    });
    mshrs.onFree([&] {
        order.push_back(-1);
        if (reissued)
            return;
        // A stalled miss re-issues into the slot that just freed.
        reissued = true;
        EXPECT_EQ(mshrs.attach(0x80, 7, {9, 7}), Attach::Allocated);
    });
    ASSERT_EQ(mshrs.attach(0x40, 0, {0, 0}), Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, {1, 0}), Attach::Coalesced);
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
    // Threads 0 and 1 attach again on their wake, as threads 10 and 11.
    MshrFile mshrs(2);
    std::vector<Attach> outcomes;
    std::vector<std::uint32_t> later;
    mshrs.onWake([&](const Waiter &w) {
        if (w.thread < 10)
            outcomes.push_back(mshrs.attach(0x40, 5, {w.thread + 10, 5}));
        else
            later.push_back(w.thread);
    });
    ASSERT_EQ(mshrs.attach(0x40, 0, {0, 0}), Attach::Allocated);
    ASSERT_EQ(mshrs.attach(0x40, 0, {1, 0}), Attach::Coalesced);
    mshrs.retire(0x40, 5);
    // The first waiter finds the line gone and allocates it afresh;
    // the second joins that new miss.
    EXPECT_EQ(outcomes,
              (std::vector<Attach>{Attach::Allocated, Attach::Coalesced}));
    EXPECT_TRUE(later.empty());
    EXPECT_EQ(mshrs.inUse(), 1u);
    mshrs.retire(0x40, 9);
    EXPECT_EQ(later, (std::vector<std::uint32_t>{10, 11}));
}

TEST(Mshr, ResetDropsWaitersWithoutWakingThem)
{
    MshrFile mshrs(4);
    WakeLog log;
    int freed = 0;
    mshrs.onWake([&](const Waiter &w) { log.record(w); });
    mshrs.onFree([&] { ++freed; });
    std::uint32_t thread = 0;
    for (topology::Addr line = 0; line < 3; ++line) {
        for (int i = 0; i < 3; ++i)
            mshrs.attach(line * 0x40, 0, {thread++, 0});
    }
    EXPECT_EQ(mshrs.coalesced(), 6u);
    mshrs.reset();
    EXPECT_TRUE(log.threads.empty()) << "reset wakes nobody";
    EXPECT_EQ(freed, 0);
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_EQ(mshrs.coalesced(), 0u);
    EXPECT_EQ(mshrs.lifetime().count(), 0u);
    EXPECT_THROW(mshrs.retire(0x40, 1), sim::PanicError)
        << "no line stays outstanding";

    // The reset file allocates from scratch, keeps its handlers, and
    // wakes only new waiters.
    EXPECT_EQ(mshrs.attach(0x0, 0, {50, 0}), Attach::Allocated);
    mshrs.retire(0x0, 1);
    EXPECT_EQ(log.threads, (std::vector<std::uint32_t>{50}));
    EXPECT_EQ(freed, 1);
}

TEST(Mshr, MisusePanics)
{
    MshrFile mshrs(2);
    mshrs.onWake([](const Waiter &) {});
    EXPECT_THROW(mshrs.retire(0x0, 0), sim::PanicError);
    ASSERT_EQ(mshrs.attach(0x0, 0, {0, 0}), Attach::Allocated);
    mshrs.retire(0x0, 0);
    EXPECT_THROW(mshrs.retire(0x0, 0), sim::PanicError);
    EXPECT_THROW(MshrFile(0), std::invalid_argument);
}

/**
 * The file's behaviour written out plainly: a map from line to its
 * allocation tick and a deque of waiters.
 */
class ReferenceMshr
{
  public:
    explicit ReferenceMshr(std::size_t capacity) : _capacity(capacity) {}

    Attach
    attach(topology::Addr line, Tick now, Waiter waiter)
    {
        const auto it = _lines.find(line);
        if (it != _lines.end()) {
            it->second.waiters.push_back(waiter);
            ++coalesced;
            return Attach::Coalesced;
        }
        if (_lines.size() >= _capacity) {
            ++fullStalls;
            return Attach::Full;
        }
        _lines[line] = Entry{now, {waiter}};
        return Attach::Allocated;
    }

    template <typename OnFree, typename OnWake>
    void
    retire(topology::Addr line, Tick now, OnFree &&on_free,
           OnWake &&on_wake)
    {
        const auto it = _lines.find(line);
        ASSERT_NE(it, _lines.end());
        const Entry entry = it->second;
        _lines.erase(it);
        lifetime.sample(static_cast<double>(now - entry.allocated));
        on_free();
        for (const Waiter &waiter : entry.waiters)
            on_wake(waiter);
    }

    std::size_t inUse() const { return _lines.size(); }

    /** The @p k-th in-flight line in address order. */
    topology::Addr
    lineAt(std::size_t k) const
    {
        auto it = _lines.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(k));
        return it->first;
    }

    std::uint64_t coalesced = 0;
    std::uint64_t fullStalls = 0;
    stats::RunningStats lifetime;

  private:
    struct Entry
    {
        Tick allocated = 0;
        std::deque<Waiter> waiters;
    };

    std::size_t _capacity;
    std::map<topology::Addr, Entry> _lines;
};

class MshrOracle : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MshrOracle, MatchesAMapOfDequesOnRandomScripts)
{
    // Random attach/retire scripts over four times as many lines as
    // entries, with random 64-bit addresses, so the index sees long
    // probe runs and its backward-shift erase moves entries. Some
    // wakes and frees attach again (to any line, the retiring one
    // included); both sides log every outcome and wake.
    const std::size_t capacity = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed * 7919 + capacity);
        std::vector<topology::Addr> pool(4 * capacity + 3);
        for (topology::Addr &line : pool)
            line = rng.next() >> 1;

        MshrFile file(capacity);
        ReferenceMshr ref(capacity);
        std::vector<std::pair<int, std::uint32_t>> file_log, ref_log;
        std::uint32_t next_thread = 0;
        Tick now = 0;

        // Threads below 1 << 20 attach again on one wake in three, as
        // a thread that never does; each free attaches one in two.
        const auto rejoin = [&](std::uint32_t thread) {
            return thread < (1u << 20) && thread % 3 == 0;
        };
        const auto rejoinLine = [&](std::uint32_t thread) {
            return pool[(thread * 2654435761u) % pool.size()];
        };
        file.onWake([&](const Waiter &w) {
            file_log.emplace_back(1, w.thread);
            file_log.emplace_back(2, static_cast<std::uint32_t>(w.ready));
            if (rejoin(w.thread)) {
                file_log.emplace_back(
                    0, static_cast<std::uint32_t>(file.attach(
                           rejoinLine(w.thread), now,
                           {w.thread | (1u << 20), now})));
            }
        });
        std::uint32_t file_frees = 0;
        file.onFree([&] {
            if (++file_frees % 2 == 0) {
                file_log.emplace_back(
                    3, static_cast<std::uint32_t>(file.attach(
                           pool[file_frees % pool.size()], now,
                           {(1u << 21) + file_frees, now})));
            }
        });
        std::uint32_t ref_frees = 0;
        const auto refWake = [&](const Waiter &w) {
            ref_log.emplace_back(1, w.thread);
            ref_log.emplace_back(2, static_cast<std::uint32_t>(w.ready));
            if (rejoin(w.thread)) {
                ref_log.emplace_back(
                    0, static_cast<std::uint32_t>(ref.attach(
                           rejoinLine(w.thread), now,
                           {w.thread | (1u << 20), now})));
            }
        };
        const auto refFree = [&] {
            if (++ref_frees % 2 == 0) {
                ref_log.emplace_back(
                    3, static_cast<std::uint32_t>(ref.attach(
                           pool[ref_frees % pool.size()], now,
                           {(1u << 21) + ref_frees, now})));
            }
        };

        for (int step = 0; step < 4000; ++step) {
            now += rng.below(50);
            if (ref.inUse() > 0 && rng.below(5) < 2) {
                const topology::Addr line =
                    ref.lineAt(rng.below(ref.inUse()));
                file.retire(line, now);
                ref.retire(line, now, refFree, refWake);
            } else {
                const topology::Addr line = pool[rng.below(pool.size())];
                const Waiter waiter{next_thread++, now};
                file_log.emplace_back(
                    0, static_cast<std::uint32_t>(
                           file.attach(line, now, waiter)));
                ref_log.emplace_back(
                    0, static_cast<std::uint32_t>(
                           ref.attach(line, now, waiter)));
            }
            ASSERT_EQ(file.inUse(), ref.inUse()) << "step " << step;
        }
        // Drain whatever is left.
        while (ref.inUse() > 0) {
            const topology::Addr line = ref.lineAt(0);
            file.retire(line, now);
            ref.retire(line, now, refFree, refWake);
        }
        EXPECT_EQ(file_log, ref_log);
        EXPECT_GT(file.coalesced(), 0u);
        EXPECT_EQ(file.coalesced(), ref.coalesced);
        EXPECT_EQ(file.fullStalls(), ref.fullStalls);
        EXPECT_EQ(file.inUse(), 0u);
        EXPECT_EQ(file.lifetime().count(), ref.lifetime.count());
        EXPECT_EQ(file.lifetime().mean(), ref.lifetime.mean());
        EXPECT_EQ(file.lifetime().variance(), ref.lifetime.variance());
        EXPECT_EQ(file.lifetime().min(), ref.lifetime.min());
        EXPECT_EQ(file.lifetime().max(), ref.lifetime.max());
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MshrOracle,
                         ::testing::Values(1u, 7u, 128u));

TEST(Mshr, SteadyMissesDoNotAllocate)
{
    // Every round fills the file with 32 lines, 1 to 4 waiters each
    // (80 in all), then retires them. The depths rotate among the
    // lines from round to round, and so do the lines and the retire
    // order, so a line's next waiters never fit storage sized by its
    // last ones; the shared pool, sized by the first round, serves
    // them all.
    constexpr std::size_t kLines = 32;
    MshrFile mshrs(kLines);
    std::size_t woken = 0;
    mshrs.onWake([&](const Waiter &) { ++woken; });
    std::uint32_t thread = 0;
    const auto round = [&](std::size_t r) {
        const auto lineOf = [r](std::size_t i) {
            return static_cast<topology::Addr>(0x40 * (i + 1 + r * kLines));
        };
        for (std::size_t i = 0; i < kLines; ++i) {
            const std::size_t depth = (i + r) % 4 + 1;
            for (std::size_t d = 0; d < depth; ++d)
                mshrs.attach(lineOf(i), r, {thread++, r});
        }
        for (std::size_t k = 0; k < kLines; ++k)
            mshrs.retire(lineOf((k * 5 + r) % kLines), r + 1);
    };
    round(0);
    ASSERT_EQ(woken, 80u);
    const std::size_t before = test::allocations.load();
    for (std::size_t r = 1; r <= 50; ++r)
        round(r);
    EXPECT_EQ(test::allocations.load() - before, 0u);
    EXPECT_EQ(woken, 51u * 80);
    EXPECT_EQ(mshrs.coalesced(), 51u * 48);
    EXPECT_EQ(mshrs.inUse(), 0u);
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
    mc.onResponse([&](const Message &resp) {
        completions.push_back(eq_.now());
        resp_seen = resp;
    });
    mc.access(request(MsgKind::ReadReq, 3, 0xAA), 0x1000);
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
    mc.onResponse([&](const Message &resp) { kind = resp.kind; });
    mc.access(request(MsgKind::WriteReq, 4, 1), 0x2000);
    eq_.run();
    EXPECT_EQ(kind, MsgKind::WriteAck);
}

TEST_F(McFixture, ThroughputBoundedByLinkRate)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    int done = 0;
    mc.onResponse([&](const Message &) { ++done; });
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64);
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
    mc.onResponse([](const Message &) {});
    for (int i = 0; i < 10; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64);
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
    mc.onResponse([&done](const Message &) { ++done; });
    // Eight requests at once: the link queues seven behind the first.
    const auto burst = [&] {
        for (int i = 0; i < 8; ++i, ++next) {
            mc.access(request(MsgKind::ReadReq, 1, next),
                      static_cast<topology::Addr>(next) * 64);
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

TEST_F(McFixture, ResetKeepsSlotStorageUpToTheCap)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    std::uint64_t next = 0;
    mc.onResponse([](const Message &) {});
    // @p requests at once: each holds a slot until its response.
    const auto burst = [&](std::size_t requests) {
        for (std::size_t i = 0; i < requests; ++i, ++next) {
            mc.access(request(MsgKind::ReadReq, 1, next),
                      static_cast<topology::Addr>(next) * 64);
        }
        eq_.run();
    };
    // The heap allocations of one pooled cell of @p requests.
    const auto cell = [&](std::size_t requests) {
        eq_.reset();
        mc.reset();
        const std::size_t before = test::allocations.load();
        burst(requests);
        return test::allocations.load() - before;
    };
    const std::size_t kept = MemoryController::keptSlots;
    burst(kept);
    // A cell that fits the kept slots grows nothing again...
    EXPECT_EQ(cell(kept), 0u);
    // ...but a saturated cell's slots are freed by the reset after it,
    // and the next saturated cell grows them again.
    cell(4 * kept);
    EXPECT_GT(cell(4 * kept), 0u);
    EXPECT_EQ(mc.accesses(), 4 * kept);
}

TEST_F(McFixture, CompletionMayIssueMoreRequests)
{
    // Each response issues two more requests until 40 are issued: the
    // slot it frees is taken again and the slots grow while the
    // handler runs.
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::uint64_t issued = 0;
    std::vector<std::uint64_t> completed;
    const auto issue = [&] {
        mc.access(request(MsgKind::ReadReq, 1, issued),
                  static_cast<topology::Addr>(issued) * 64);
        ++issued;
    };
    mc.onResponse([&](const Message &resp) {
        EXPECT_EQ(resp.kind, MsgKind::ReadResp);
        completed.push_back(resp.tag);
        for (int k = 0; k < 2 && issued < 40; ++k)
            issue();
    });
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

TEST_F(McFixture, ResetDropsQueuedAndInFlightRequests)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    std::vector<std::uint64_t> responded;
    mc.onResponse([&](const Message &resp) { responded.push_back(resp.tag); });
    for (std::uint64_t i = 0; i < 6; ++i) {
        mc.access(request(MsgKind::ReadReq, 1, i),
                  static_cast<topology::Addr>(i) * 64);
    }
    // One ECM line takes 4267 ticks on the link: by 10 ns three
    // requests are past it, in flight, and three still queue.
    eq_.run(10000);
    EXPECT_EQ(mc.queueDepth(), 3u);
    EXPECT_TRUE(responded.empty());
    mc.reset();
    eq_.reset();
    EXPECT_EQ(mc.queueDepth(), 0u);
    EXPECT_EQ(mc.peakQueueDepth(), 0u);
    EXPECT_EQ(mc.accesses(), 0u);

    // The reset controller keeps its handler and serves new requests
    // only.
    mc.access(request(MsgKind::ReadReq, 1, 9), 0);
    eq_.run();
    EXPECT_EQ(responded, (std::vector<std::uint64_t>{9}));
    EXPECT_EQ(mc.accesses(), 1u);
}

TEST_F(McFixture, NonMemoryRequestPanics)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    EXPECT_THROW(mc.access(request(MsgKind::ReadResp, 1, 0), 0),
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
