/**
 * @file
 * Unit and property tests for the electrical 2D mesh: dimension-order
 * routing correctness and deadlock freedom, per-hop latency, bisection
 * bandwidth ceilings, a router port's serialization, queue and credit
 * back-pressure, a golden forwarding order, and the pool that holds
 * the messages in flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "mesh/electrical_mesh.hh"
#include "mesh/routing.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace corona;
using mesh::Direction;
using mesh::ElectricalMesh;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;
using topology::ClusterId;
using topology::Geometry;

constexpr Tick kClock = 200;

Message
makeMsg(ClusterId src, ClusterId dst, MsgKind kind = MsgKind::ReadReq,
        std::uint64_t tag = 0)
{
    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.kind = kind;
    msg.tag = tag;
    return msg;
}

TEST(Routing, DimensionOrderXFirst)
{
    const Geometry geom;
    const ClusterId origin = geom.idAt({0, 0});
    const ClusterId east = geom.idAt({3, 0});
    const ClusterId north = geom.idAt({0, 3});
    const ClusterId both = geom.idAt({3, 3});
    EXPECT_EQ(mesh::route(geom, origin, east), Direction::East);
    EXPECT_EQ(mesh::route(geom, origin, north), Direction::North);
    // X corrected before Y.
    EXPECT_EQ(mesh::route(geom, origin, both), Direction::East);
    EXPECT_EQ(mesh::route(geom, east, both), Direction::North);
    EXPECT_EQ(mesh::route(geom, both, both), Direction::Local);
}

TEST(Routing, NeighbourAndOpposite)
{
    const Geometry geom;
    const ClusterId centre = geom.idAt({4, 4});
    EXPECT_EQ(geom.coordOf(mesh::neighbour(geom, centre, Direction::East)),
              (topology::GridCoord{5, 4}));
    EXPECT_EQ(mesh::opposite(Direction::East), Direction::West);
    EXPECT_EQ(mesh::opposite(Direction::North), Direction::South);
    const ClusterId corner = geom.idAt({0, 0});
    EXPECT_FALSE(mesh::hasNeighbour(geom, corner, Direction::West));
    EXPECT_FALSE(mesh::hasNeighbour(geom, corner, Direction::South));
    EXPECT_THROW(mesh::neighbour(geom, corner, Direction::West),
                 std::out_of_range);
}

TEST(Routing, RouteAlwaysMakesProgress)
{
    const Geometry geom;
    for (ClusterId s = 0; s < 64; ++s) {
        for (ClusterId d = 0; d < 64; ++d) {
            ClusterId here = s;
            std::size_t hops = 0;
            while (here != d) {
                const Direction dir = mesh::route(geom, here, d);
                ASSERT_NE(dir, Direction::Local);
                here = mesh::neighbour(geom, here, dir);
                ASSERT_LE(++hops, 14u) << "route diverged";
            }
            EXPECT_EQ(hops, geom.manhattanDistance(s, d));
        }
    }
}

TEST(MeshParams, PaperBisections)
{
    EXPECT_DOUBLE_EQ(mesh::hmeshParams().bisection_bytes_per_second,
                     1.28e12);
    EXPECT_DOUBLE_EQ(mesh::lmeshParams().bisection_bytes_per_second,
                     0.64e12);
}

class MeshFixture : public ::testing::Test
{
  protected:
    MeshFixture()
        : mesh_(eq_, sim::coronaClock(), geom_, mesh::hmeshParams(),
                "HMesh")
    {
    }

    EventQueue eq_;
    Geometry geom_;
    ElectricalMesh mesh_;
};

TEST_F(MeshFixture, LinkBandwidthFromBisection)
{
    // 1.28 TB/s across the 8-channel cut, derated by the 0.8 wormhole
    // flow-control efficiency = 128 GB/s per link.
    EXPECT_DOUBLE_EQ(mesh_.linkBandwidth(), 128e9);
    EXPECT_DOUBLE_EQ(mesh_.bisectionBandwidth(), 1.28e12);
    EXPECT_EQ(mesh_.name(), "HMesh");
}

TEST_F(MeshFixture, SingleMessageLatencyIsFiveClocksPerHop)
{
    std::vector<Tick> deliveries;
    mesh_.setDeliver([&](const Message &) {
        deliveries.push_back(eq_.now());
    });
    const ClusterId src = geom_.idAt({0, 0});
    const ClusterId dst = geom_.idAt({3, 0});
    mesh_.send(makeMsg(src, dst)); // 3 hops
    eq_.run();
    ASSERT_EQ(deliveries.size(), 1u);
    // Each hop: serialization (16 B at 128 GB/s = 125 ps) + 5-clock
    // hop latency.
    const Tick ser = 125; // 16 B / 128 GB/s
    EXPECT_EQ(deliveries[0], 3 * (ser + 5 * kClock));
}

TEST_F(MeshFixture, HopCountMatchesManhattanDistance)
{
    EXPECT_EQ(mesh_.hopCount(geom_.idAt({0, 0}), geom_.idAt({7, 7})), 14u);
    EXPECT_EQ(mesh_.hopCount(5, 5), 1u); // Local delivery counted as 1.
}

TEST_F(MeshFixture, AllPairsDeliverExactlyOnce)
{
    std::map<std::pair<unsigned, unsigned>, int> received;
    mesh_.setDeliver([&](const Message &msg) {
        ++received[{static_cast<unsigned>(msg.src),
                    static_cast<unsigned>(msg.dst)}];
    });
    int sent = 0;
    for (ClusterId s = 0; s < 64; s += 3) {
        for (ClusterId d = 0; d < 64; d += 3) {
            if (s == d)
                continue;
            mesh_.send(makeMsg(s, d, MsgKind::ReadReq,
                               static_cast<std::uint64_t>(s) << 8 | d));
            ++sent;
        }
    }
    eq_.run();
    EXPECT_EQ(static_cast<int>(received.size()), sent);
    for (const auto &[key, count] : received)
        EXPECT_EQ(count, 1);
    EXPECT_EQ(mesh_.netStats().messages.value(),
              static_cast<std::uint64_t>(sent));
}

TEST_F(MeshFixture, MisroutePanicGuard)
{
    EXPECT_THROW(mesh_.send(makeMsg(0, 200)), sim::PanicError);
}

TEST_F(MeshFixture, HopTraversalsAccumulateForPowerModel)
{
    mesh_.setDeliver([](const Message &) {});
    const ClusterId src = geom_.idAt({0, 0});
    const ClusterId dst = geom_.idAt({7, 7});
    mesh_.send(makeMsg(src, dst));
    mesh_.send(makeMsg(src, dst));
    eq_.run();
    EXPECT_EQ(mesh_.netStats().hopTraversals.value(), 28u);
}

TEST(Mesh, LMeshIsHalfTheBandwidth)
{
    EventQueue eq;
    const Geometry geom;
    ElectricalMesh lmesh(eq, sim::coronaClock(), geom,
                         mesh::lmeshParams(), "LMesh");
    EXPECT_DOUBLE_EQ(lmesh.linkBandwidth(), 64e9);
}

TEST(Mesh, SaturatedLinkThrottlesThroughput)
{
    EventQueue eq;
    const Geometry geom;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom,
                        mesh::hmeshParams(), "HMesh");
    std::uint64_t bytes = 0;
    mesh.setDeliver([&](const Message &msg) { bytes += msg.bytes(); });
    // Hammer one link: (0,0) -> (1,0) with 80 B responses.
    const ClusterId src = geom.idAt({0, 0});
    const ClusterId dst = geom.idAt({1, 0});
    const int n = 200;
    for (int i = 0; i < n; ++i)
        mesh.send(makeMsg(src, dst, MsgKind::ReadResp));
    eq.run();
    const double seconds = sim::ticksToSeconds(eq.now());
    const double achieved = static_cast<double>(bytes) / seconds;
    // Cannot exceed the derated 128 GB/s link rate.
    EXPECT_LE(achieved, 128e9 * 1.01);
    // And should come close (> 80%) once the pipeline fills.
    EXPECT_GE(achieved, 0.8 * 128e9);
}

// -------------------------------------------------------------------
// One router output port: serialization, its queue and credits.
// -------------------------------------------------------------------

/** A mesh of 160 GB/s links (1.6 TB/s bisection at efficiency 0.8):
 * 16 B serialize in 100 ticks and 80 B in 500. */
mesh::MeshParams
fastLinks(std::size_t hop_latency_clocks)
{
    mesh::MeshParams params;
    params.bisection_bytes_per_second = 1.6e12;
    params.hop_latency_clocks = hop_latency_clocks;
    return params;
}

TEST(RouterPort, SerializationTimeIsTheCeilingAndNeverZero)
{
    const mesh::HopTiming exact = mesh::hopTiming(160e9, 1000);
    EXPECT_EQ(exact.serialization[static_cast<std::size_t>(
                  MsgKind::ReadReq)],
              100u);
    EXPECT_EQ(exact.serialization[static_cast<std::size_t>(
                  MsgKind::ReadResp)],
              500u);
    EXPECT_EQ(exact.latency, 1000u);
    // 3 GB/s: 16 B take 5333.3 ticks and 80 B 26666.7; both round up.
    const mesh::HopTiming slow = mesh::hopTiming(3e9, 0);
    EXPECT_EQ(slow.serialization[static_cast<std::size_t>(
                  MsgKind::WriteAck)],
              5334u);
    EXPECT_EQ(slow.serialization[static_cast<std::size_t>(
                  MsgKind::WriteReq)],
              26667u);
    // An unbounded rate still takes one tick.
    const mesh::HopTiming instant =
        mesh::hopTiming(std::numeric_limits<double>::infinity(), 0);
    for (const Tick ticks : instant.serialization)
        EXPECT_EQ(ticks, 1u);
}

TEST(RouterPort, BackToBackMessagesSerializeOnOneHop)
{
    EventQueue eq;
    const Geometry geom;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, fastLinks(0),
                        "Fast");
    std::vector<Tick> deliveries;
    mesh.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    const ClusterId src = geom.idAt({0, 0});
    const ClusterId dst = geom.idAt({1, 0});
    mesh.send(makeMsg(src, dst, MsgKind::ReadResp));
    mesh.send(makeMsg(src, dst, MsgKind::ReadResp));
    eq.run();
    // The second message waits for the wire.
    EXPECT_EQ(deliveries, (std::vector<Tick>{500, 1000}));
}

TEST(RouterPort, QueueCapacityHoldsTheRestInTheInjectionQueue)
{
    EventQueue eq;
    const Geometry geom;
    mesh::MeshParams params = fastLinks(0);
    params.router.link_queue_depth = 2;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, params, "Fast");
    int delivered = 0;
    mesh.setDeliver([&](const Message &) { ++delivered; });
    const ClusterId src = geom.idAt({0, 0});
    const ClusterId dst = geom.idAt({1, 0});
    for (int i = 0; i < 5; ++i)
        mesh.send(makeMsg(src, dst));
    // One message serializes and leaves the port queue, two fill it,
    // and two stay in the router's injection queue.
    EXPECT_EQ(mesh.router(src).injectionDepth(), 2u);
    eq.run();
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(mesh.router(src).injectionDepth(), 0u);
}

TEST(RouterPort, CreditStallRestartsWhenTheInputIsPopped)
{
    // A one-message input buffer and a 1000-tick hop: the port holds
    // its next message until the neighbour pops the one in flight, so
    // each message serializes only after the previous one arrives.
    EventQueue eq;
    const Geometry geom;
    mesh::MeshParams params = fastLinks(5);
    params.router.input_buffer_depth = 1;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, params, "Fast");
    std::vector<Tick> deliveries;
    mesh.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    const ClusterId src = geom.idAt({0, 0});
    const ClusterId dst = geom.idAt({1, 0});
    for (int i = 0; i < 3; ++i)
        mesh.send(makeMsg(src, dst));
    // Serialized, in flight: the credit stays reserved.
    eq.run(150);
    EXPECT_EQ(mesh.router(dst).inputDepth(Direction::West), 1u);
    eq.run();
    EXPECT_EQ(deliveries, (std::vector<Tick>{1100, 2200, 3300}));
    EXPECT_EQ(mesh.router(dst).inputDepth(Direction::West), 0u);

    // With room for every message, they serialize back to back.
    EventQueue eq_deep;
    ElectricalMesh deep(eq_deep, sim::coronaClock(), geom, fastLinks(5),
                        "Fast");
    deliveries.clear();
    deep.setDeliver([&](const Message &) {
        deliveries.push_back(eq_deep.now());
    });
    for (int i = 0; i < 3; ++i)
        deep.send(makeMsg(src, dst));
    eq_deep.run();
    EXPECT_EQ(deliveries, (std::vector<Tick>{1100, 1200, 1300}));
}

TEST(RouterPort, RejectsAZeroRateOrAZeroDepth)
{
    EventQueue eq;
    const Geometry geom;
    mesh::MeshParams no_rate = fastLinks(5);
    no_rate.bisection_bytes_per_second = 0.0;
    EXPECT_THROW(ElectricalMesh(eq, sim::coronaClock(), geom, no_rate, "X"),
                 std::invalid_argument);
    mesh::MeshParams no_input = fastLinks(5);
    no_input.router.input_buffer_depth = 0;
    EXPECT_THROW(
        ElectricalMesh(eq, sim::coronaClock(), geom, no_input, "X"),
        std::invalid_argument);
    mesh::MeshParams no_queue = fastLinks(5);
    no_queue.router.link_queue_depth = 0;
    EXPECT_THROW(
        ElectricalMesh(eq, sim::coronaClock(), geom, no_queue, "X"),
        std::invalid_argument);
}

/** Builds a mesh that must throw std::invalid_argument; returns its
 * message and the heap allocations the attempt made. */
std::pair<std::string, std::size_t>
rejection(const Geometry &geom, const mesh::MeshParams &params)
{
    EventQueue eq;
    const std::size_t before = test::allocations.load();
    try {
        ElectricalMesh mesh(eq, sim::coronaClock(), geom, params, "X");
    } catch (const std::invalid_argument &e) {
        const std::size_t made = test::allocations.load() - before;
        return {e.what(), made};
    }
    ADD_FAILURE() << "the mesh was built";
    return {};
}

TEST(Mesh, RejectsMoreClustersThanAFlitNamesBeforeBuildingARouter)
{
    // A zero rate fails in hopTiming(), before the first router.
    mesh::MeshParams no_rate = mesh::hmeshParams();
    no_rate.bisection_bytes_per_second = 0.0;
    const auto [rate_what, rate_allocations] = rejection(Geometry(), no_rate);
    // 256 x 256 clusters: a flit's 16-bit dst names them all, so the
    // rate check is what throws.
    const auto [edge_what, edge_allocations] =
        rejection(Geometry(256 * 256), no_rate);
    EXPECT_EQ(edge_what, rate_what);
    EXPECT_EQ(edge_allocations, rate_allocations);
    // 257 x 257: too many. The rejection allocates no more than the
    // zero-rate one, so it too comes before the first router: none of
    // the 66,049 route tables of 66,049 entries each is built.
    const auto [wide_what, wide_allocations] =
        rejection(Geometry(257 * 257), mesh::hmeshParams());
    EXPECT_NE(wide_what.find("clusters"), std::string::npos) << wide_what;
    EXPECT_EQ(wide_allocations, rate_allocations);
}

// -------------------------------------------------------------------
// Property sweep: deadlock-free delivery under random traffic.
// -------------------------------------------------------------------

struct MeshTrafficCase
{
    std::uint64_t seed;
    int messages;
    bool lmesh;
};

class MeshRandomTraffic
    : public ::testing::TestWithParam<MeshTrafficCase>
{
};

TEST_P(MeshRandomTraffic, AllMessagesDeliveredUnmodified)
{
    const auto param = GetParam();
    EventQueue eq;
    const Geometry geom;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom,
                        param.lmesh ? mesh::lmeshParams()
                                    : mesh::hmeshParams(),
                        param.lmesh ? "LMesh" : "HMesh");
    sim::Rng rng(param.seed);
    std::map<std::uint64_t, int> outstanding;
    int delivered = 0;
    mesh.setDeliver([&](const Message &msg) {
        ++delivered;
        auto it = outstanding.find(msg.tag);
        ASSERT_NE(it, outstanding.end()) << "unknown or duplicate tag";
        if (--it->second == 0)
            outstanding.erase(it);
    });
    for (int i = 0; i < param.messages; ++i) {
        const auto src = static_cast<ClusterId>(rng.below(64));
        auto dst = static_cast<ClusterId>(rng.below(64));
        const auto kind = rng.chance(0.5) ? MsgKind::ReadResp
                                          : MsgKind::ReadReq;
        ++outstanding[static_cast<std::uint64_t>(i)];
        Message msg = makeMsg(src, dst, kind,
                              static_cast<std::uint64_t>(i));
        mesh.send(msg);
    }
    eq.run();
    EXPECT_EQ(delivered, param.messages);
    EXPECT_TRUE(outstanding.empty()) << "lost messages (deadlock?)";
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, MeshRandomTraffic,
    ::testing::Values(MeshTrafficCase{1, 500, false},
                      MeshTrafficCase{2, 2000, false},
                      MeshTrafficCase{3, 2000, true},
                      MeshTrafficCase{4, 5000, false},
                      MeshTrafficCase{5, 5000, true}));

// -------------------------------------------------------------------
// Golden forwarding order under back-pressure: hot-spot and uniform
// bursts that fill input buffers and link queues. The constants lock
// the forwarding order — round-robin arbitration, FIFO discipline and
// event order — so a change to any of them moves the digest.
// -------------------------------------------------------------------

struct GoldenRun
{
    std::uint64_t delivered = 0;
    /** FNV-1a over the ordered (tick, message tag) deliveries. */
    std::uint64_t digest = 14695981039346656037ull;
    /** Largest input depth of any router seen at a delivery. */
    std::size_t peakInputDepth = 0;
    /** Deliveries later than their unloaded time. */
    std::uint64_t delayed = 0;
    /** Messages sent so far, bursts and replies; each message's tag is
     * its send number. */
    std::uint64_t sent = 0;
};

void
fnv1a(std::uint64_t &hash, std::uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        hash ^= (word >> (8 * b)) & 0xff;
        hash *= 1099511628211ull;
    }
}

/** Points @p mesh's deliveries at @p run and schedules 24 bursts on
 * @p eq; the caller runs the queue. With @p replies, the destination
 * answers every ReadReq with a ReadResp: the ejection then re-enters
 * inject() on the router whose forwarding pass is running, as a fill
 * that frees an MSHR does when its thread issues the next miss. Each
 * delivery also reads (and only reads) every router's input depths and
 * the message's delay over its unloaded time, @p timing per hop. */
void
startGoldenTraffic(EventQueue &eq, ElectricalMesh &mesh,
                   const Geometry &geom, const mesh::HopTiming &timing,
                   bool replies, GoldenRun &run)
{
    mesh.setDeliver([&eq, &mesh, &geom, &timing, replies,
                     &run](const Message &msg) {
        ++run.delivered;
        fnv1a(run.digest, eq.now());
        fnv1a(run.digest, msg.tag);
        for (ClusterId id = 0; id < geom.clusters(); ++id) {
            for (std::size_t d = 0; d < 4; ++d)
                run.peakInputDepth = std::max(
                    run.peakInputDepth,
                    mesh.router(id).inputDepth(static_cast<Direction>(d)));
        }
        const Tick unloaded =
            geom.manhattanDistance(msg.src, msg.dst) *
            (timing.serialization[static_cast<std::size_t>(msg.kind)] +
             timing.latency);
        if (eq.now() - msg.injected > unloaded)
            ++run.delayed;
        if (replies && msg.kind == MsgKind::ReadReq) {
            Message reply = makeMsg(msg.dst, msg.src, MsgKind::ReadResp);
            reply.tag = run.sent++;
            mesh.send(reply);
        }
    });
    sim::Rng rng(20260);
    for (int burst = 0; burst < 24; ++burst) {
        const bool hot = rng.chance(0.5);
        const auto hot_dst = static_cast<ClusterId>(rng.below(64));
        const auto count = 48 + rng.below(49);
        std::vector<Message> batch;
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto src = static_cast<ClusterId>(rng.below(64));
            const auto dst =
                hot ? hot_dst : static_cast<ClusterId>(rng.below(64));
            Message msg = makeMsg(src, dst,
                                  rng.chance(0.6) ? MsgKind::ReadResp
                                                  : MsgKind::ReadReq);
            msg.tag = run.sent++;
            batch.push_back(msg);
        }
        eq.schedule(static_cast<Tick>(burst) * 4000,
                    [&mesh, batch] {
                        for (const Message &msg : batch)
                            mesh.send(msg);
                    });
    }
}

/** startGoldenTraffic(), run to completion. */
GoldenRun
runGoldenTraffic(EventQueue &eq, ElectricalMesh &mesh,
                 const Geometry &geom, const mesh::HopTiming &timing,
                 bool replies)
{
    GoldenRun run;
    startGoldenTraffic(eq, mesh, geom, timing, replies, run);
    eq.run();
    EXPECT_EQ(run.delivered, run.sent) << "every message delivered";
    return run;
}

struct GoldenCase
{
    bool lmesh;
    bool replies;
    std::uint64_t delivered;
    std::uint64_t digest;
    /** One-message input buffers and port queues, where nearly every
     * forwarding stage blocks. */
    bool shallow = false;
};

class MeshGoldenOrder : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(MeshGoldenOrder, DeliveryOrderMatchesTheRecordedDigest)
{
    const auto param = GetParam();
    EventQueue eq;
    const Geometry geom;
    mesh::MeshParams params =
        param.lmesh ? mesh::lmeshParams() : mesh::hmeshParams();
    if (param.shallow) {
        params.router.input_buffer_depth = 1;
        params.router.link_queue_depth = 1;
    }
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, params,
                        param.lmesh ? "LMesh" : "HMesh");
    const mesh::HopTiming timing = mesh::hopTiming(
        mesh.linkBandwidth(), params.hop_latency_clocks * kClock);

    const GoldenRun first =
        runGoldenTraffic(eq, mesh, geom, timing, param.replies);
    EXPECT_EQ(first.delivered, param.delivered);
    EXPECT_EQ(first.digest, param.digest);
    // The traffic must actually exercise back-pressure: some input
    // buffer filled to its depth and some message waited on the way.
    EXPECT_EQ(first.peakInputDepth, params.router.input_buffer_depth);
    EXPECT_GT(first.delayed, 0u);

    // A reset mesh and queue replay the identical order.
    mesh.reset();
    eq.reset();
    const GoldenRun second =
        runGoldenTraffic(eq, mesh, geom, timing, param.replies);
    EXPECT_EQ(second.delivered, first.delivered);
    EXPECT_EQ(second.digest, first.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Bursts, MeshGoldenOrder,
    ::testing::Values(
        GoldenCase{false, false, 1663, 6996117947516639286ull},
        GoldenCase{true, false, 1663, 15678689531108502347ull},
        GoldenCase{false, true, 2298, 13856292682824949006ull},
        GoldenCase{true, true, 2298, 567225417006869283ull},
        GoldenCase{false, false, 1663, 15676596213783796831ull, true},
        GoldenCase{true, false, 1663, 4429719174081157621ull, true},
        GoldenCase{false, true, 2298, 1214050027145638038ull, true},
        GoldenCase{true, true, 2298, 4240799106269369236ull, true}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.lmesh ? "LMesh" : "HMesh") +
               (info.param.replies ? "RequestReply" : "") +
               (info.param.shallow ? "Shallow" : "");
    });

TEST(MeshPool, ADeliveredMessageOutlivesASendFromItsCallback)
{
    EventQueue eq;
    const Geometry geom;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, mesh::hmeshParams(),
                        "HMesh");
    std::vector<std::uint64_t> tags;
    mesh.setDeliver([&](const Message &msg) {
        const std::uint64_t tag = msg.tag;
        // The reply may take the pool slot this message just left.
        if (msg.kind == MsgKind::ReadReq)
            mesh.send(makeMsg(msg.dst, msg.src, MsgKind::ReadResp, tag + 1));
        EXPECT_EQ(msg.tag, tag);
        tags.push_back(msg.tag);
    });
    mesh.send(makeMsg(geom.idAt({0, 0}), geom.idAt({3, 2}),
                      MsgKind::ReadReq, 10));
    eq.run();
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{10, 11}));
}

TEST(MeshPool, ResetMidFlightReplaysAndKeepsItsStorage)
{
    const Geometry geom;
    const mesh::MeshParams params = mesh::hmeshParams();
    EventQueue fresh_eq;
    ElectricalMesh fresh(fresh_eq, sim::coronaClock(), geom, params,
                         "HMesh");
    const mesh::HopTiming timing = mesh::hopTiming(
        fresh.linkBandwidth(), params.hop_latency_clocks * kClock);
    const GoldenRun reference =
        runGoldenTraffic(fresh_eq, fresh, geom, timing, true);

    EXPECT_EQ(fresh.inFlight(), 0u);

    // Stop just after the eleventh burst is sent, with messages in
    // flight.
    EventQueue eq;
    ElectricalMesh mesh(eq, sim::coronaClock(), geom, params, "HMesh");
    GoldenRun cut;
    startGoldenTraffic(eq, mesh, geom, timing, true, cut);
    eq.run(10 * 4000);
    ASSERT_GT(cut.delivered, 0u);
    ASSERT_GT(mesh.inFlight(), 0u);

    mesh.reset();
    eq.reset();
    EXPECT_EQ(mesh.inFlight(), 0u) << "a reset leaked a slot";
    const GoldenRun replay = runGoldenTraffic(eq, mesh, geom, timing, true);
    EXPECT_EQ(replay.delivered, reference.delivered);
    EXPECT_EQ(replay.digest, reference.digest);
    EXPECT_EQ(mesh.inFlight(), 0u);

    // A second identical run reaches the same peaks, and the body pool,
    // its free list and the flit rings keep their storage across
    // reset(), so it never reaches the allocator.
    mesh.reset();
    eq.reset();
    GoldenRun again;
    startGoldenTraffic(eq, mesh, geom, timing, true, again);
    const std::size_t before = test::allocations.load();
    eq.run();
    EXPECT_EQ(test::allocations.load() - before, 0u);
    EXPECT_EQ(again.digest, reference.digest);
}

} // namespace
