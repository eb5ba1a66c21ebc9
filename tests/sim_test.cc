/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * determinism (including the ring/wheel/heap boundaries),
 * pooled callback lifetimes, the inline callable type, clock-domain
 * arithmetic, RNG distributions, the flat hash map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "noc/message.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace {

using namespace corona;
using sim::EventQueue;
using sim::Tick;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 4u * 7u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunLimitIsInclusive)
{
    // An event scheduled exactly at the limit tick still executes:
    // run(limit) means "run through tick `limit`", not "up to it".
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&] { ++fired; });
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventOneTickPastLimitStaysPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&] { ++fired; });
    eq.schedule(51, [&] { ++fired; });
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // now() rests on the last executed event, not the limit.
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.run(51), 51u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithNoEligibleEventIsANoOp)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    // Limit below the first event: nothing runs, time does not move.
    EXPECT_EQ(eq.run(99), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, EventAtLimitMaySpawnSameTickWork)
{
    // Work an at-limit event schedules for the same tick is still
    // within the limit and must drain in the same run() call.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(2); });
        eq.scheduleIn(1, [&] { order.push_back(3); });
    });
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.pending(), 1u); // The tick-51 event waits.
}

TEST(EventQueue, ThrowsOnPastScheduling)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (Tick t = 1; t <= 42; ++t)
        eq.schedule(t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 42u);
}

// ---------------------------------------------------------------------
// Three-level kernel boundaries: bucket-ring wrap, wheel cascades into
// the ring, heap admission into the wheel, and parity with a trivially
// correct reference implementation.

TEST(EventQueue, SameTickFifoAcrossRingWrap)
{
    // Two batches whose ticks map to the same bucket index (exactly one
    // ring window apart): the far batch waits in a wheel slot, is
    // cascaded once the ring line passes it, and both keep FIFO order.
    EventQueue eq;
    std::vector<int> order;
    const Tick near = 100;
    const Tick far = near + EventQueue::ringWindow;
    for (int i = 0; i < 4; ++i)
        eq.schedule(far, [&order, i] { order.push_back(100 + i); });
    for (int i = 0; i < 4; ++i)
        eq.schedule(near, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 100, 101, 102, 103}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueue, CascadedWheelEventsPrecedeLaterRingSchedules)
{
    // An event past the ring line (wheel) and a same-tick event
    // scheduled *after* the line has passed that tick (ring): the wheel
    // event was scheduled first and must fire first.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = EventQueue::ringWindow + 500;
    eq.schedule(target, [&] { order.push_back(1); }); // To the wheel.
    // A stepping stone one slot on moves the ring line past `target`,
    // cascading its slot, before the late schedule files into the ring.
    eq.schedule(EventQueue::wheelSlotTicks, [&, target] {
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, AdmittedHeapEventsPrecedeLaterWheelSchedules)
{
    // One tick reached three ways, in schedule order: from the heap
    // (beyond the wheel), then from its wheel slot once the wheel's
    // reach has passed it, then from the ring once the ring line has.
    // Each earlier event must fire first.
    EventQueue eq;
    std::vector<int> order;
    const Tick target =
        EventQueue::wheelReach + 3 * EventQueue::ringWindow + 11;
    eq.schedule(target, [&] { order.push_back(1); }); // To the heap.
    // Past one slot, and a second event for the heap's slot in the
    // same tick's list, from the wheel.
    eq.schedule(5 * EventQueue::wheelSlotTicks, [&, target] {
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.schedule(target - 100, [&, target] {
        eq.schedule(target, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), target);
}

TEST(EventQueue, FarOrderIsStableAcrossInterleavedScheduling)
{
    // Far-future events land in a wheel slot, or on the heap beyond
    // the wheel, in scrambled tick order with same-tick duplicates;
    // execution must sort by tick with FIFO ties.
    for (const Tick base : {4 * Tick{EventQueue::ringWindow},
                            2 * EventQueue::wheelReach}) {
        EventQueue eq;
        std::vector<int> order;
        const int ticks[] = {7, 3, 7, 1, 3, 7, 1, 9};
        for (int i = 0; i < 8; ++i) {
            eq.schedule(base + static_cast<Tick>(100 * ticks[i]),
                        [&order, i] { order.push_back(i); });
        }
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{3, 6, 1, 4, 0, 2, 5, 7}))
            << "base " << base;
    }
}

TEST(EventQueue, SparseTicksJumpTheWindow)
{
    // Consecutive events several windows, or a whole wheel, apart
    // exercise the empty-ring and empty-wheel jump paths.
    EventQueue eq;
    std::vector<Tick> fired;
    Tick when = 5;
    for (int i = 0; i < 6; ++i) {
        eq.schedule(when, [&fired, &eq] { fired.push_back(eq.now()); });
        when += (i % 2 == 0 ? 3 * EventQueue::ringWindow
                            : EventQueue::wheelReach) +
                7;
    }
    eq.run();
    ASSERT_EQ(fired.size(), 6u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(eq.now(), fired.back());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, NextTickIsExactAtEveryLevel)
{
    // nextTick() is the earliest pending tick whichever level holds it:
    // the sharded executor's barrier reads it without running anything.
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), sim::maxTick);

    // Only the heap: its minimum, not its first-scheduled entry.
    const Tick beyond = 3 * EventQueue::wheelReach;
    eq.schedule(beyond + 40, [] {});
    eq.schedule(beyond + 30, [] {});
    EXPECT_EQ(eq.nextTick(), beyond + 30);
    eq.run(beyond + 29);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.run(), beyond + 40);

    // Only the wheel: the earliest tick of the nearest slot, which is
    // neither the slot's first-filed event nor the lowest slot index.
    // After the run the ring line is slot 1002's edge, so the scan
    // starts at index 1002: slot 1010 is found before slot 1030,
    // whose index (6) lies below the start and is reached by wrapping.
    EventQueue wheel;
    const Tick slot = EventQueue::wheelSlotTicks;
    wheel.schedule(1000 * slot, [] {});
    wheel.run();
    wheel.schedule(1030 * slot + 5, [] {});
    wheel.schedule(1010 * slot + 700, [] {});
    wheel.schedule(1010 * slot + 300, [] {});
    EXPECT_EQ(wheel.nextTick(), 1010 * slot + 300);
    EXPECT_EQ(wheel.run(1010 * slot + 300), 1010 * slot + 300);
    EXPECT_EQ(wheel.nextTick(), 1010 * slot + 700);
    EXPECT_EQ(wheel.run(1010 * slot + 700), 1010 * slot + 700);
    EXPECT_EQ(wheel.nextTick(), 1030 * slot + 5);

    // A ring event precedes both.
    wheel.schedule(wheel.now() + 3, [] {});
    wheel.schedule(wheel.now() + EventQueue::wheelReach + 3 * slot, [] {});
    EXPECT_EQ(wheel.nextTick(), wheel.now() + 3);
}

TEST(EventQueue, ResetRestoresThePristineQueue)
{
    EventQueue eq;
    int fired = 0;
    // Dirty every level: a partially drained bucket (its first event
    // throws), ring events ahead, a wheel slot and the heap.
    eq.schedule(10, [&] {
        ++fired;
        throw std::runtime_error("partly drained");
    });
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(500, [&] { ++fired; });
    eq.schedule(10 * EventQueue::ringWindow, [&] { ++fired; });
    eq.schedule(2 * EventQueue::wheelReach, [&] { ++fired; });
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 4u);

    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.nextTick(), sim::maxTick);

    // The recycled queue behaves like a fresh one at every level,
    // including same-tick FIFO in a bucket and a slot that previously
    // held dropped events.
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        eq.schedule(2 * EventQueue::wheelReach,
                    [&order, i] { order.push_back(20 + i); });
        eq.schedule(10 * EventQueue::ringWindow,
                    [&order, i] { order.push_back(10 + i); });
        eq.schedule(10, [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(eq.nextTick(), 10u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 20, 21, 22}));
    EXPECT_EQ(eq.executed(), 9u);
    EXPECT_EQ(eq.now(), 2 * EventQueue::wheelReach);
    EXPECT_EQ(fired, 1); // Dropped events never fire.
}

TEST(EventQueue, ResetWalksOnlyOccupiedBuckets)
{
    // A pooled lease's reset pays for the buckets and slots the last
    // run left occupied, not for the whole ring or wheel.
    EventQueue eq;
    int fired = 0;
    for (const Tick when :
         {Tick{10}, Tick{20}, Tick{20}, Tick{30}, Tick{500},
          10 * EventQueue::ringWindow, 10 * EventQueue::ringWindow + 1,
          2 * EventQueue::wheelReach})
        eq.schedule(when, [&] { ++fired; });
    eq.run(15);
    ASSERT_EQ(fired, 1);
    ASSERT_EQ(eq.pending(), 7u);
    const std::uint64_t before = eq.resetBucketsWalked();
    eq.reset();
    EXPECT_EQ(eq.resetBucketsWalked() - before, 4u)
        << "ticks 20, 30 and 500 occupy ring buckets and the two far "
           "events one wheel slot; the farthest waits in the heap";

    // A drained run leaves no bucket to walk.
    for (const Tick when : {Tick{10}, Tick{20}, Tick{500}})
        eq.schedule(when, [&] { ++fired; });
    eq.run();
    ASSERT_TRUE(eq.empty());
    const std::uint64_t drained = eq.resetBucketsWalked();
    eq.reset();
    EXPECT_EQ(eq.resetBucketsWalked(), drained);
}

// ---------------------------------------------------------------------
// Pooled nodes: callbacks run in place from the node pool, so every
// capture must be destroyed exactly once — after it runs, when it
// throws, when reset() drops it, or when the queue itself goes.

struct CaptureTally
{
    /** Destructions of each capture id's owning instance. */
    std::vector<int> destroyed;
    /** Capture ids in the order their callbacks ran. */
    std::vector<int> order;
};

/** Move-only capture that records its own destruction by id. */
class Counted
{
  public:
    Counted(CaptureTally &tally, int id) : _tally(&tally), _id(id)
    {
        const auto slot = static_cast<std::size_t>(id);
        if (_tally->destroyed.size() <= slot)
            _tally->destroyed.resize(slot + 1, 0);
    }

    Counted(Counted &&other) noexcept
        : _tally(other._tally), _id(other._id)
    {
        other._tally = nullptr;
    }

    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;
    Counted &operator=(Counted &&) = delete;

    ~Counted()
    {
        if (_tally)
            ++_tally->destroyed[static_cast<std::size_t>(_id)];
    }

    void ran() const { _tally->order.push_back(_id); }

  private:
    CaptureTally *_tally;
    int _id;
};

TEST(EventQueue, PooledCapturesAreDestroyedExactlyOnce)
{
    CaptureTally tally;
    int next_id = 0;
    auto eq = std::make_unique<EventQueue>();
    const auto plain = [&](Tick when) {
        eq->schedule(when, [c = Counted(tally, next_id++)] { c.ran(); });
    };
    const auto oversize = [&](Tick when) {
        struct Pad
        {
            char bytes[64];
        };
        EventQueue::Callback cb(
            [c = Counted(tally, next_id++), pad = Pad{}] {
                (void)pad;
                c.ran();
            });
        EXPECT_FALSE(cb.isInline()) << "heap-stored capture";
        eq->schedule(when, std::move(cb));
    };
    const Tick far = 3 * EventQueue::ringWindow;
    const Tick beyond = far + EventQueue::wheelReach;

    // id 0, current tick: grows the pool well past one chunk while it
    // runs in place, reads its own capture afterwards, then schedules
    // ids 8 and 9 into its own tick.
    eq->schedule(0, [&, c = Counted(tally, next_id++)] {
        for (int i = 0; i < 3000; ++i)
            eq->schedule(1, [] {});
        c.ran();
        plain(0);
        oversize(0);
    });
    oversize(0); // id 1
    eq->schedule(0, [c = Counted(tally, next_id++)] { // id 2
        c.ran();
        throw std::runtime_error("mid-drain");
    });
    plain(0);        // id 3: same tick, behind the thrower
    plain(500);      // id 4: further ahead in the ring
    oversize(9000);  // id 5
    plain(far);      // id 6: a wheel slot
    oversize(beyond); // id 7: the heap

    EXPECT_THROW(eq->run(), std::runtime_error);
    EXPECT_EQ(tally.order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(tally.destroyed, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0, 0,
                                                 0}))
        << "the thrown callback's capture is destroyed with its node";

    // The queue is consistent after the throw: the rest of tick 0, in
    // FIFO order including the in-place reschedules, then tick 500.
    eq->run(500);
    EXPECT_EQ(tally.order, (std::vector<int>{0, 1, 2, 3, 8, 9, 4}));
    EXPECT_EQ(eq->now(), 500u);
    EXPECT_EQ(eq->pending(), 3u);

    // reset() drops the ring-ahead, wheel and heap captures exactly
    // once.
    eq->reset();
    EXPECT_TRUE(eq->empty());
    EXPECT_EQ(tally.destroyed, std::vector<int>(10, 1));

    // The recycled pool schedules and runs normally; what is still
    // pending when the queue is destroyed is destroyed with it.
    plain(5);       // id 10
    oversize(5);    // id 11
    plain(far);     // id 12
    oversize(beyond); // id 13
    plain(7);       // id 14
    EXPECT_EQ(eq->run(6), 5u);
    EXPECT_EQ(tally.order,
              (std::vector<int>{0, 1, 2, 3, 8, 9, 4, 10, 11}));
    EXPECT_EQ(eq->pending(), 3u);
    eq.reset();
    EXPECT_EQ(tally.destroyed, std::vector<int>(15, 1));
}

/** A callable that counts the copies and moves made of it. */
struct MoveCounter
{
    int *copies;
    int *moves;

    MoveCounter(int &c, int &m) : copies(&c), moves(&m) {}
    MoveCounter(const MoveCounter &other)
        : copies(other.copies), moves(other.moves)
    {
        ++*copies;
    }
    MoveCounter(MoveCounter &&other) noexcept
        : copies(other.copies), moves(other.moves)
    {
        ++*moves;
    }
    void operator()() const {}
};

template <typename Arg>
concept Schedulable = requires(EventQueue &eq, Arg &&arg) {
    eq.schedule(Tick{0}, std::forward<Arg>(arg));
};
static_assert(Schedulable<EventQueue::Callback>,
              "a built Callback is scheduled by relocation");
static_assert(!Schedulable<EventQueue::Callback &>,
              "an lvalue Callback would have to be copied, and cannot");

TEST(EventQueue, ScheduleBuildsTheCaptureInPlace)
{
    EventQueue eq;
    int copies = 0;
    int moves = 0;
    eq.schedule(1, MoveCounter(copies, moves));
    EXPECT_EQ(moves, 1) << "schedule: from the temporary into its node";
    eq.scheduleIn(2, MoveCounter(copies, moves));
    EXPECT_EQ(moves, 2) << "scheduleIn: from the temporary into its node";
    eq.schedule(3 * EventQueue::ringWindow, MoveCounter(copies, moves));
    EXPECT_EQ(moves, 3) << "a wheel event moves once too";
    eq.schedule(3 * EventQueue::ringWindow + EventQueue::wheelReach,
                MoveCounter(copies, moves));
    EXPECT_EQ(moves, 4) << "and so does a heap event";
    EXPECT_EQ(copies, 0);

    const MoveCounter named(copies, moves);
    eq.schedule(3, named);
    eq.scheduleIn(4, named);
    EXPECT_EQ(copies, 2) << "an lvalue is copied once";
    EXPECT_EQ(moves, 4) << "and never moved";

    eq.run();
    EXPECT_EQ(eq.executed(), 6u);
    EXPECT_EQ(copies, 2);
    EXPECT_EQ(moves, 4)
        << "admission, cascading and running move nothing";
}

/** A callable whose copy throws. */
struct ThrowingCopy
{
    ThrowingCopy() = default;
    ThrowingCopy(const ThrowingCopy &)
    {
        throw std::runtime_error("capture copy");
    }
    ThrowingCopy(ThrowingCopy &&) noexcept = default;
    void operator()() const {}
};

TEST(EventQueue, ThrowingCaptureLeavesTheQueueUnchanged)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 3 * EventQueue::ringWindow;      // A wheel slot.
    const Tick beyond = far + EventQueue::wheelReach; // The heap.
    eq.schedule(5, [&] { order.push_back(0); });
    eq.schedule(far, [&] { order.push_back(1); });
    eq.schedule(beyond, [&] { order.push_back(5); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(far, [&] { order.push_back(3); });
    eq.schedule(beyond, [&] { order.push_back(6); });
    eq.run(0);

    const ThrowingCopy thrower;
    EXPECT_THROW(eq.schedule(5, thrower), std::runtime_error);
    EXPECT_THROW(eq.schedule(far, thrower), std::runtime_error);
    EXPECT_THROW(eq.schedule(beyond, thrower), std::runtime_error);
    EXPECT_THROW(eq.scheduleIn(1, thrower), std::runtime_error);
    EXPECT_EQ(eq.pending(), 6u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.nextTick(), 5u);

    eq.schedule(5, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5, 6}));
    EXPECT_EQ(eq.executed(), 7u);
    EXPECT_TRUE(eq.empty());
}

/** Reference kernel: the behavioural contract in its simplest form
 * (stable sort by tick, insertion order breaking ties). */
struct ReferenceQueue
{
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };
    std::vector<Entry> entries;
    std::uint64_t next_seq = 0;
    Tick now = 0;

    /** Earliest pending tick, or maxTick when drained. */
    Tick
    next() const
    {
        Tick earliest = sim::maxTick;
        for (const Entry &entry : entries)
            earliest = std::min(earliest, entry.when);
        return earliest;
    }

    void
    schedule(Tick when, int id)
    {
        entries.push_back({when, next_seq++, id});
    }

    /** Execute through @p limit; returns ids in execution order. */
    std::vector<int>
    run(Tick limit)
    {
        std::stable_sort(entries.begin(), entries.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.when < b.when;
                         });
        std::vector<int> fired;
        std::size_t i = 0;
        for (; i < entries.size() && entries[i].when <= limit; ++i) {
            fired.push_back(entries[i].id);
            now = entries[i].when;
        }
        entries.erase(entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(i));
        return fired;
    }
};

TEST(EventQueue, RandomisedParityWithReferenceKernel)
{
    // Drive both kernels with an identical randomised schedule whose
    // deltas straddle the ring window, the wheel's slot edges and its
    // reach, and span several wheel turns, in many run(limit)
    // instalments, and require identical execution order and next tick
    // each time.
    sim::Rng rng(2026);
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<int> fired;
    int next_id = 0;
    const auto near = [&rng](Tick edge) {
        return edge - 2 + static_cast<Tick>(rng.below(5)); // edge +- 2
    };

    const auto schedule_burst = [&](int count) {
        for (int i = 0; i < count; ++i) {
            const Tick base = eq.now();
            // Mix of same-tick, near (ring), boundary, far (wheel) and
            // beyond (heap).
            Tick delta = 0;
            switch (rng.below(9)) {
              case 0: delta = 0; break;
              case 1: delta = static_cast<Tick>(rng.below(64)); break;
              case 2:
                delta = static_cast<Tick>(
                    rng.below(EventQueue::ringWindow));
                break;
              case 3: delta = near(EventQueue::ringWindow); break;
              case 4:
                delta = static_cast<Tick>(
                    rng.below(5 * EventQueue::ringWindow));
                break;
              case 5: {
                // A slot edge, relative to now or absolute (at least
                // one slot ahead, so never in the past).
                const Tick edge =
                    (2 + rng.below(5)) * EventQueue::wheelSlotTicks;
                delta = rng.chance(0.5)
                            ? near(edge)
                            : near((base / EventQueue::wheelSlotTicks) *
                                       EventQueue::wheelSlotTicks +
                                   edge) -
                                  base;
                break;
              }
              case 6: delta = near(EventQueue::wheelReach); break;
              case 7:
                // An absolute slot edge just past the wheel's reach:
                // a later burst's event on the same tick enters the
                // wheel while this one still waits in the heap.
                delta = near((base / EventQueue::wheelSlotTicks +
                              EventQueue::wheelSlots + 1 +
                              rng.below(3)) *
                             EventQueue::wheelSlotTicks) -
                        base;
                break;
              default:
                delta = static_cast<Tick>(
                    rng.below(3 * EventQueue::wheelReach));
                break;
            }
            const int id = next_id++;
            ref.schedule(base + delta, id);
            eq.schedule(base + delta,
                        [&fired, id] { fired.push_back(id); });
        }
    };

    schedule_burst(400);
    Tick limit = 0;
    for (int round = 0; round < 60; ++round) {
        // Mostly short instalments, some a few slots, some up to half
        // a turn: the rounds cover several turns.
        switch (rng.below(4)) {
          case 0:
            limit += static_cast<Tick>(
                rng.below(EventQueue::wheelReach / 2) + 1);
            break;
          case 1:
            limit += static_cast<Tick>(
                rng.below(4 * EventQueue::wheelSlotTicks) + 1);
            break;
          default:
            limit += static_cast<Tick>(
                rng.below(2 * EventQueue::ringWindow) + 1);
            break;
        }
        EXPECT_EQ(eq.nextTick(), ref.next()) << "round " << round;
        fired.clear();
        eq.run(limit);
        EXPECT_EQ(fired, ref.run(limit)) << "round " << round;
        EXPECT_EQ(eq.now(), ref.now);
        EXPECT_EQ(eq.pending(), ref.entries.size());
        schedule_burst(40);
    }
    EXPECT_EQ(eq.nextTick(), ref.next());
    fired.clear();
    eq.run();
    EXPECT_EQ(fired, ref.run(sim::maxTick));
    EXPECT_TRUE(eq.empty());
}

// ---------------------------------------------------------------------
// InlineFunction: the kernel's pooled callable type.

TEST(InlineFunction, SmallCapturesStayInline)
{
    int hits = 0;
    int *p = &hits;
    sim::InlineFunction<void()> fn([p] { ++*p; });
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.isInline());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, FortyEightByteCapturesStayInline)
{
    // The hot-path contract: `this` plus a full noc::Message — the
    // capture of every link, channel and hub delivery event — must
    // not allocate.
    static_assert(sizeof(noc::Message) == 40);
    noc::Message msg;
    msg.tag = 7;
    const noc::Message *self = &msg;
    auto capture = [self, msg] { return msg.tag + (self ? 0 : 1); };
    static_assert(sizeof(capture) == 48);
    sim::InlineFunction<std::uint64_t()> fn(capture);
    EXPECT_TRUE(fn.isInline());
    EXPECT_EQ(fn(), 7u);
}

TEST(InlineFunction, OversizeCapturesFallBackToTheHeap)
{
    struct Big
    {
        char bytes[64];
    };
    Big big{};
    big.bytes[63] = 9;
    sim::InlineFunction<int()> fn([big] { return big.bytes[63]; });
    EXPECT_FALSE(fn.isInline());
    EXPECT_EQ(fn(), 9);
}

TEST(InlineFunction, MovePreservesTheCallableAndEmptiesTheSource)
{
    int calls = 0;
    int *p = &calls;
    sim::InlineFunction<void()> a([p] { ++*p; });
    sim::InlineFunction<void()> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    sim::InlineFunction<void()> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, CarriesMoveOnlyState)
{
    auto owned = std::make_unique<int>(41);
    sim::InlineFunction<int()> fn(
        [owned = std::move(owned)] { return *owned + 1; });
    EXPECT_TRUE(fn.isInline());
    sim::InlineFunction<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFunction, InvokingEmptyThrowsLikeStdFunction)
{
    sim::InlineFunction<void()> empty;
    EXPECT_THROW(empty(), std::bad_function_call);
    sim::InlineFunction<void()> moved_from([] {});
    sim::InlineFunction<void()> stolen(std::move(moved_from));
    EXPECT_THROW(moved_from(), std::bad_function_call);
}

TEST(InlineFunction, ForwardsArguments)
{
    sim::InlineFunction<int(int, int)> add(
        [](int a, int b) { return a + b; });
    EXPECT_EQ(add(40, 2), 42);
}

TEST(InlineFunction, DestroysTheCaptureExactlyOnce)
{
    int alive = 0;
    struct Token
    {
        int *alive;
        explicit Token(int *a) : alive(a) { ++*alive; }
        Token(const Token &other) : alive(other.alive) { ++*alive; }
        Token(Token &&other) noexcept : alive(other.alive)
        {
            ++*alive;
        }
        ~Token() { --*alive; }
    };
    {
        sim::InlineFunction<void()> fn([t = Token(&alive)] {
            (void)t;
        });
        EXPECT_GE(alive, 1);
        sim::InlineFunction<void()> moved(std::move(fn));
        EXPECT_EQ(alive, 1);
    }
    EXPECT_EQ(alive, 0);
}

TEST(ClockDomain, CoronaClockIs200ps)
{
    const auto &clock = sim::coronaClock();
    EXPECT_EQ(clock.period(), 200u);
    EXPECT_DOUBLE_EQ(clock.frequencyHz(), 5.0e9);
}

TEST(ClockDomain, CycleConversionsRoundTrip)
{
    const sim::ClockDomain clock(5.0e9);
    EXPECT_EQ(clock.cyclesToTicks(8), 1600u);
    EXPECT_EQ(clock.ticksToCycles(1600), 8u);
    EXPECT_EQ(clock.ticksToCycles(1601), 8u);
}

TEST(ClockDomain, EdgeAlignment)
{
    const sim::ClockDomain clock(5.0e9);
    EXPECT_EQ(clock.nextEdge(0), 0u);
    EXPECT_EQ(clock.nextEdge(1), 200u);
    EXPECT_EQ(clock.nextEdge(200), 200u);
    EXPECT_EQ(clock.edgeAfter(200), 400u);
    EXPECT_EQ(clock.edgeAfter(199), 200u);
}

TEST(ClockDomain, RejectsBadFrequencies)
{
    EXPECT_THROW(sim::ClockDomain(0.0), std::invalid_argument);
    EXPECT_THROW(sim::ClockDomain(-1.0), std::invalid_argument);
    // 3 GHz has a 333.33 ps period — not a whole number of ticks.
    EXPECT_THROW(sim::ClockDomain(3.0e9), std::invalid_argument);
}

TEST(Types, UnitConstants)
{
    EXPECT_EQ(sim::oneNanosecond, 1000u);
    EXPECT_EQ(sim::oneSecond, 1000000000000ull);
    EXPECT_EQ(sim::nanosecondsToTicks(20.0), 20000u);
    EXPECT_DOUBLE_EQ(sim::ticksToSeconds(sim::oneSecond), 1.0);
    EXPECT_EQ(sim::secondsToTicks(1e-9), sim::oneNanosecond);
}

TEST(Rng, DeterministicFromSeed)
{
    sim::Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval)
{
    sim::Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    sim::Rng rng(11);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.below(10)];
    for (const int count : counts)
        EXPECT_NEAR(count, 1000, 200);
    EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive)
{
    sim::Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.range(1, 0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanConverges)
{
    sim::Rng rng(17);
    double sum = 0.0;
    const double mean = 250.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ChanceFrequency)
{
    sim::Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits, 3000, 300);
}

TEST(Rng, BurstSizeBounded)
{
    sim::Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const auto b = rng.burstSize(1.5, 64);
        ASSERT_GE(b, 1u);
        ASSERT_LE(b, 64u);
    }
    EXPECT_THROW(rng.burstSize(0.0, 64), std::invalid_argument);
}

TEST(Logging, FatalAndPanicThrowTypedErrors)
{
    EXPECT_THROW(sim::fatal("bad config"), sim::FatalError);
    EXPECT_THROW(sim::panic("bug"), sim::PanicError);
    try {
        sim::fatal("message text");
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("message text"),
                  std::string::npos);
    }
}

TEST(FlatMap, MatchesUnorderedMapOnRandomOperations)
{
    // Three key pools: dense line addresses, keys that differ only
    // above bit 32 (a table indexed by low key bits would put them in
    // one slot) and random keys. Each pool is small enough that probe
    // runs collide, wrap around the slot array and lose entries from
    // the middle.
    std::mt19937_64 rng(7);
    std::vector<std::vector<std::uint64_t>> pools(3);
    for (std::uint64_t i = 0; i < 300; ++i) {
        pools[0].push_back(i * 64);
        pools[1].push_back(i << 32);
        pools[2].push_back(rng());
    }
    for (const std::vector<std::uint64_t> &pool : pools) {
        sim::FlatMap<std::uint64_t> flat;
        std::unordered_map<std::uint64_t, std::uint64_t> oracle;
        for (int round = 0; round < 3; ++round) {
            for (int op = 0; op < 20000; ++op) {
                // Bias toward inserts early and erases late in a round,
                // so the map grows through several doublings and drains.
                const std::uint64_t key = pool[rng() % pool.size()];
                const bool insert = static_cast<int>(rng() % 20000) >= op;
                if (insert) {
                    const auto [value, inserted] = flat.tryEmplace(key);
                    ASSERT_EQ(inserted, !oracle.count(key));
                    if (inserted) {
                        ASSERT_EQ(*value, 0u);
                    }
                    *value += op;
                    oracle[key] += op;
                } else {
                    ASSERT_EQ(flat.erase(key), oracle.erase(key) == 1);
                }
                ASSERT_EQ(flat.size(), oracle.size());
                if (op % 97 == 0) {
                    // Every key of the pool is found, or absent, as in
                    // the oracle.
                    for (const std::uint64_t k : pool) {
                        const std::uint64_t *v = flat.find(k);
                        const auto it = oracle.find(k);
                        ASSERT_EQ(v != nullptr, it != oracle.end()) << k;
                        if (v) {
                            ASSERT_EQ(*v, it->second) << k;
                        }
                    }
                }
            }
            std::size_t visited = 0;
            flat.forEach([&](std::uint64_t key, std::uint64_t value) {
                ++visited;
                EXPECT_EQ(oracle.at(key), value);
            });
            EXPECT_EQ(visited, oracle.size());

            // clear() empties the map and keeps its storage.
            const std::size_t capacity = flat.capacity();
            flat.clear();
            oracle.clear();
            EXPECT_EQ(flat.size(), 0u);
            EXPECT_EQ(flat.capacity(), capacity);
            EXPECT_EQ(flat.find(pool[0]), nullptr);
        }
    }
}

TEST(FlatMap, ReservesTheAllOnesKey)
{
    sim::FlatMap<int> map;
    EXPECT_EQ(map.find(sim::FlatMap<int>::emptyKey), nullptr);
    EXPECT_FALSE(map.erase(sim::FlatMap<int>::emptyKey));
    EXPECT_THROW(map.tryEmplace(sim::FlatMap<int>::emptyKey),
                 sim::PanicError);
    map[3] = 4;
    EXPECT_EQ(map.find(sim::FlatMap<int>::emptyKey), nullptr);
    EXPECT_EQ(*map.find(3), 4);
}

} // namespace
