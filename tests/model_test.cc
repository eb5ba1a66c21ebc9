/**
 * @file
 * Unit tests for the analytical model: the queueing closed forms,
 * traffic descriptors, the SystemConfig-to-DesignPoint mapping, and
 * the headline shapes the model predicts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "model/analytic.hh"
#include "model/queueing.hh"
#include "model/traffic.hh"
#include "sim/logging.hh"
#include "workload/splash.hh"

namespace {

using namespace corona;

// ------------------------------------------------------- queueing

TEST(Queueing, ClosedFormsBehave)
{
    EXPECT_DOUBLE_EQ(model::md1Wait(0.0, 100.0), 0.0);
    EXPECT_NEAR(model::md1Wait(0.5, 100.0), 50.0, 1e-9);
    // M/M/1 waits are exactly twice M/D/1 at equal rho and service.
    EXPECT_NEAR(model::mm1Wait(0.5, 100.0),
                2.0 * model::md1Wait(0.5, 100.0), 1e-9);
    // Saturation clamps instead of dividing by zero.
    EXPECT_TRUE(std::isfinite(model::md1Wait(1.5, 100.0)));
    EXPECT_GT(model::md1Wait(0.9999, 100.0),
              model::md1Wait(0.99, 100.0));
    EXPECT_DOUBLE_EQ(model::utilization(50.0, 100.0), 0.5);
    EXPECT_DOUBLE_EQ(model::utilization(200.0, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(model::utilization(1.0, 0.0), 1.0);
}

// ------------------------------------------------- traffic shapes

TEST(Traffic, UniformSpreadsAndHotSpotConcentrates)
{
    const auto &uniform = model::descriptorFor("Uniform", 64, 16);
    EXPECT_NEAR(uniform.max_home_share, 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(uniform.local_fraction, 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(uniform.offered_bytes_per_second, 6.55e12, 0.1e12);

    const auto &hot = model::descriptorFor("Hot Spot", 64, 16);
    EXPECT_NEAR(hot.max_home_share, 1.0, 1e-12);
    // Only cluster 0's own misses are local.
    EXPECT_NEAR(hot.local_fraction, 1.0 / 64.0, 1e-12);
    // Requests converge on channel 0 (responses still spread), so
    // the hot channel's byte share is the request fraction of the
    // wire traffic — far above the 1/64 of balanced patterns.
    EXPECT_GT(hot.max_channel_share, 0.3);
    EXPECT_GT(hot.max_channel_share,
              10.0 * uniform.max_channel_share);
}

TEST(Traffic, PermutationPatternsBalanceHomes)
{
    for (const char *name : {"Tornado", "Transpose"}) {
        const auto &d = model::descriptorFor(name, 64, 16);
        // Every destination receives exactly one source's traffic.
        EXPECT_NEAR(d.max_home_share, 1.0 / 64.0, 1e-12) << name;
    }
    // Transpose's diagonal is self-traffic; Tornado has none.
    EXPECT_NEAR(model::descriptorFor("Transpose", 64, 16)
                    .local_fraction,
                8.0 / 64.0, 1e-12);
    EXPECT_DOUBLE_EQ(
        model::descriptorFor("Tornado", 64, 16).local_fraction, 0.0);
    // Tornado needs more bisection per byte than uniform traffic.
    EXPECT_GT(model::descriptorFor("Tornado", 64, 16)
                  .max_mesh_link_share,
              model::descriptorFor("Uniform", 64, 16)
                  .max_mesh_link_share);
}

TEST(Traffic, SplashOfferedLoadsMatchWorkloadModels)
{
    for (const auto &params : workload::splashSuite()) {
        if (params.burst.enabled)
            continue; // Bursty models re-derive their sustained rate.
        const auto &d = model::descriptorFor(params.name, 64, 16);
        const workload::SplashWorkload w(params);
        EXPECT_NEAR(d.offered_bytes_per_second,
                    w.offeredBytesPerSecond(),
                    w.offeredBytesPerSecond() * 1e-6)
            << params.name;
    }
    const auto &lu = model::descriptorFor("LU", 64, 16);
    EXPECT_GT(lu.burst_misses_per_thread, 0.0);
    EXPECT_LT(lu.duty_cycle, 0.5);
    EXPECT_GT(lu.max_home_share, 0.1); // Hot block concentration.
}

TEST(Traffic, UnknownWorkloadIsRejected)
{
    EXPECT_FALSE(model::knowsWorkload("NoSuchBenchmark"));
    EXPECT_TRUE(model::knowsWorkload("FFT"));
    EXPECT_EQ(model::knownWorkloads().size(), 15u);
}

// --------------------------------------------- design-point mapping

TEST(DesignPoint, FromConfigReadsTheAxes)
{
    auto config = core::makeConfig(core::NetworkKind::XBar,
                                   core::MemoryKind::OCM);
    config.clusters = 16;
    config.xbar_channel.bytes_per_clock = 16;
    config.xbar_channel.token_node_pause = 200;
    config.memory_bandwidth_scale = 4.0;

    const model::DesignPoint point = model::fromConfig(config, "FFT");
    EXPECT_EQ(point.network, core::NetworkKind::XBar);
    EXPECT_EQ(point.memory, core::MemoryKind::OCM);
    EXPECT_EQ(point.clusters, 16u);
    // 16 B/clock over the fixed 4-guide bundle: 16 wavelengths each.
    EXPECT_EQ(point.channel_waveguides, 4u);
    EXPECT_EQ(point.wavelengths_per_guide, 16u);
    EXPECT_DOUBLE_EQ(point.channelBytesPerClock(), 16.0);
    EXPECT_EQ(point.token_scheme, model::TokenScheme::Slot);
    EXPECT_EQ(point.memory_channels, 4u);
    EXPECT_EQ(point.workload, "FFT");
}

TEST(DesignPoint, OutOfRangeBandwidthScaleIsFatal)
{
    // 1e300 channels do not fit a size_t: a located error, not an
    // undefined cast.
    auto huge = core::makeConfig(core::NetworkKind::XBar,
                                 core::MemoryKind::OCM);
    huge.memory_bandwidth_scale = 1e300;
    try {
        model::fromConfig(huge, "Uniform");
        ADD_FAILURE() << "scale 1e300 accepted";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("memory_bandwidth_scale"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DesignPoint, PaperPointReproducesChannelBandwidth)
{
    const model::DesignPoint paper;
    EXPECT_DOUBLE_EQ(paper.channelBytesPerClock(), 64.0);
    // 64 B per 200 ps clock = 320 GB/s (2.56 Tb/s, Section 3.2.1).
    EXPECT_DOUBLE_EQ(paper.channelBandwidthBytesPerSecond(), 320e9);
}

// ------------------------------------------------ model behaviour

TEST(AnalyticModel, ReproducesHeadlineShapes)
{
    const model::AnalyticModel m;

    // Hot Spot on any fabric pins at one controller's bandwidth.
    model::DesignPoint hot;
    hot.workload = "Hot Spot";
    const auto hot_p = m.evaluate(hot);
    EXPECT_NEAR(hot_p.achieved_bytes_per_second, 160e9, 16e9);

    // Demanding workloads on ECM saturate near 0.96 TB/s aggregate.
    model::DesignPoint ecm;
    ecm.network = core::NetworkKind::HMesh;
    ecm.memory = core::MemoryKind::ECM;
    ecm.workload = "FFT";
    const auto ecm_p = m.evaluate(ecm);
    EXPECT_LT(ecm_p.achieved_bytes_per_second, 1.1e12);
    EXPECT_GT(ecm_p.achieved_bytes_per_second, 0.6e12);

    // The 2-5 TB/s class is realized only on XBar/OCM (Figure 9).
    model::DesignPoint xbar;
    xbar.workload = "Radix";
    const auto xbar_p = m.evaluate(xbar);
    EXPECT_GT(xbar_p.achieved_bytes_per_second, 4e12);
    model::DesignPoint lmesh = xbar;
    lmesh.network = core::NetworkKind::LMesh;
    const auto lmesh_p = m.evaluate(lmesh);
    EXPECT_LT(lmesh_p.achieved_bytes_per_second,
              xbar_p.achieved_bytes_per_second / 2.0);

    // The slot-token scheme waits longer for the token than the
    // flying channel token (Section 6).
    model::DesignPoint slot = xbar;
    slot.token_scheme = model::TokenScheme::Slot;
    EXPECT_GT(m.evaluate(slot).token_wait_ns, xbar_p.token_wait_ns);

    // Light workloads achieve their offered load with low latency.
    model::DesignPoint light;
    light.workload = "Barnes";
    const auto light_p = m.evaluate(light);
    EXPECT_NEAR(light_p.achieved_bytes_per_second,
                light_p.offered_bytes_per_second,
                light_p.offered_bytes_per_second * 0.05);
    EXPECT_LT(light_p.avg_latency_ns, 100.0);
}

} // namespace
