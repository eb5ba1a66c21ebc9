/**
 * @file
 * Analytical cross-validation of the queueing models: the memory
 * controller under Poisson arrivals must track M/D/1 waiting times,
 * and a mesh link must track its utilization law. These tests tie
 * the simulator's contention behaviour to closed-form theory rather
 * than to itself — and the closed forms are the shared
 * model/queueing implementation, so the analytical performance model
 * and its validation use one set of formulas.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "memory/memory_controller.hh"
#include "mesh/electrical_mesh.hh"
#include "model/queueing.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace corona;
using sim::EventQueue;
using sim::Tick;

/** Drive a memory controller with Poisson arrivals at utilization rho;
 * return the mean queueing delay (service time excluded), ticks. */
double
mcQueueingDelay(double rho, int arrivals, std::uint64_t seed)
{
    EventQueue eq;
    memory::MemoryParams params = memory::ocmParams();
    params.link_delay = 0;
    // Isolate the link server: make mat occupancy negligible so the
    // only queueing resource is the deterministic line serializer.
    params.dram.mat_occupancy = 1;
    memory::MemoryController mc(eq, 0, params);

    // Deterministic service time: one line at 160 GB/s = 400 ticks.
    const double service = 64.0 / (params.bytes_per_second /
                                   static_cast<double>(sim::oneSecond));
    const double mean_gap = service / rho;

    sim::Rng rng(seed);
    double total_wait = 0.0;
    int completed = 0;
    std::vector<Tick> arrived(static_cast<std::size_t>(arrivals));
    mc.onResponse([&](const noc::Message &resp) {
        // The 20 ns array access overlaps the 400-tick serialization
        // and dominates it, so the service pipeline contributes a flat
        // 20 ns; what remains is the time spent waiting for the link
        // server.
        const double in_system =
            static_cast<double>(eq.now() - arrived[resp.tag]);
        total_wait += in_system - 20000.0;
        ++completed;
    });
    Tick arrival = 0;
    for (int i = 0; i < arrivals; ++i) {
        arrival += static_cast<Tick>(rng.exponential(mean_gap));
        eq.schedule(arrival, [&, i] {
            noc::Message req;
            req.src = 1;
            req.dst = 0;
            req.kind = noc::MsgKind::ReadReq;
            req.tag = static_cast<std::uint64_t>(i);
            arrived[req.tag] = eq.now();
            mc.access(req, static_cast<topology::Addr>(i) * 64);
        });
    }
    eq.run();
    EXPECT_EQ(completed, arrivals);
    return total_wait / completed;
}

class Md1Sweep : public ::testing::TestWithParam<double>
{
};

TEST_P(Md1Sweep, MemoryControllerMatchesMd1Waiting)
{
    const double rho = GetParam();
    const double service = 400.0; // ticks
    // The shared closed form: rho * s / (2 (1 - rho)).
    const double expected = model::md1Wait(rho, service);
    const double measured = mcQueueingDelay(rho, 40000, 13);
    // 10% + 20-tick tolerance: finite run, integer ticks.
    EXPECT_NEAR(measured, expected, expected * 0.10 + 20.0)
        << "rho = " << rho;
}

INSTANTIATE_TEST_SUITE_P(Utilisations, Md1Sweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85));

TEST(QueueingLaws, LinkUtilizationMatchesOfferedLoad)
{
    // One link of a real mesh: 160 GB/s links (1.6 TB/s bisection at
    // the 0.8 efficiency) with no hop latency, so a message from (0,0)
    // to (1,0) is delivered the tick its serialization ends.
    EventQueue eq;
    const topology::Geometry geom;
    mesh::MeshParams params;
    params.bisection_bytes_per_second = 1.6e12;
    params.hop_latency_clocks = 0;
    mesh::ElectricalMesh mesh(eq, sim::coronaClock(), geom, params, "Link");
    ASSERT_DOUBLE_EQ(mesh.linkBandwidth(), 160e9);
    const topology::ClusterId src = geom.idAt({0, 0});
    const topology::ClusterId dst = geom.idAt({1, 0});
    // 80 B per message: service 500 ticks.
    const Tick service = 500;
    Tick busy = 0;
    double total_wait = 0.0;
    int delivered = 0;
    mesh.setDeliver([&](const noc::Message &msg) {
        busy += service;
        total_wait += static_cast<double>(eq.now() - service - msg.injected);
        ++delivered;
    });
    sim::Rng rng(17);
    // Offered load at 40% of capacity: mean gap 1250 ticks.
    Tick arrival = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        arrival += static_cast<Tick>(rng.exponential(1250.0));
        eq.schedule(arrival, [&mesh, src, dst] {
            noc::Message msg;
            msg.src = src;
            msg.dst = dst;
            msg.kind = noc::MsgKind::ReadResp;
            mesh.send(msg);
        });
    }
    eq.run();
    ASSERT_EQ(delivered, n);
    const double utilization =
        static_cast<double>(busy) / static_cast<double>(eq.now());
    // The utilization law: busy fraction = offered / capacity.
    EXPECT_NEAR(utilization, model::utilization(64e9, 160e9), 0.02);
    // M/D/1 wait at rho=0.4 on a 500-tick server: 166.7 ticks.
    EXPECT_NEAR(total_wait / n, model::md1Wait(0.4, 500.0), 35.0);
}

TEST(QueueingLaws, LittlesLawHoldsForMcQueue)
{
    // N = lambda * W: check via the controller's own statistics.
    EventQueue eq;
    memory::MemoryController mc(eq, 0, memory::ecmParams());
    sim::Rng rng(19);
    Tick arrival = 0;
    const int n = 5000;
    int completed = 0;
    double total_time = 0.0;
    std::vector<Tick> started(static_cast<std::size_t>(n));
    mc.onResponse([&](const noc::Message &resp) {
        total_time += static_cast<double>(eq.now() - started[resp.tag]);
        ++completed;
    });
    for (int i = 0; i < n; ++i) {
        arrival += static_cast<Tick>(rng.exponential(6000.0));
        eq.schedule(arrival, [&, i] {
            noc::Message req;
            req.kind = noc::MsgKind::ReadReq;
            req.tag = static_cast<std::uint64_t>(i);
            started[req.tag] = eq.now();
            mc.access(req, static_cast<topology::Addr>(i) * 64);
        });
    }
    eq.run();
    EXPECT_EQ(completed, n);
    const double lambda =
        static_cast<double>(n) / static_cast<double>(eq.now());
    const double w = total_time / n;
    // Mean requests in system via the shared Little's-law helper.
    const double l = model::littlesLawOccupancy(lambda, w);
    // ECM service 64 B / 15 GB/s = ~4267 ticks at ~0.71 utilization:
    // the system holds a handful of requests on average.
    EXPECT_GT(l, 1.0);
    EXPECT_LT(l, 20.0);
}

} // namespace
