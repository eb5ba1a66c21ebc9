/**
 * @file
 * Unit tests for the analytical model subsystem: traffic
 * descriptors, design-point mapping, feasibility pruning edges
 * (loss budget and trim range), calibration fit/persist/apply, the
 * campaign executor hook, design-space enumeration determinism, and
 * Pareto-frontier correctness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "model/calibration.hh"
#include "model/design_space.hh"
#include "model/executor.hh"
#include "model/feasibility.hh"
#include "model/queueing.hh"
#include "model/traffic.hh"
#include "sim/logging.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

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

TEST(DesignPoint, ConfigRoundTripPreservesAxes)
{
    model::DesignPoint point;
    point.network = core::NetworkKind::XBar;
    point.memory = core::MemoryKind::OCM;
    point.clusters = 16;
    point.wavelengths_per_guide = 32;
    point.channel_waveguides = 2;
    point.token_scheme = model::TokenScheme::Slot;
    point.memory_channels = 4;
    point.workload = "FFT";

    const core::SystemConfig config = model::toConfig(point);
    EXPECT_EQ(config.xbar_channel.bytes_per_clock, 16u); // 2*32*2/8.
    EXPECT_EQ(config.xbar_channel.token_node_pause, 200u);
    EXPECT_DOUBLE_EQ(config.memory_bandwidth_scale, 4.0);
    EXPECT_EQ(config.name(), point.label());

    const model::DesignPoint back = model::fromConfig(config, "FFT");
    EXPECT_EQ(back.clusters, point.clusters);
    EXPECT_EQ(back.wavelengths_per_guide * back.channel_waveguides,
              point.wavelengths_per_guide * point.channel_waveguides);
    EXPECT_EQ(back.token_scheme, model::TokenScheme::Slot);
    EXPECT_EQ(back.memory_channels, 4u);
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

// ------------------------------------------- feasibility pruning

TEST(Feasibility, PaperDesignCloses)
{
    const auto f = model::assessFeasibility(model::DesignPoint{});
    EXPECT_TRUE(f.feasible) << f.reason;
    EXPECT_GT(f.ring_yield, 0.99);
    // Laser + trimming + dynamic lands in the tens of watts, the
    // paper's ~39 W photonic estimate's neighbourhood.
    EXPECT_GT(f.photonic_power_w, 20.0);
    EXPECT_LT(f.photonic_power_w, 80.0);
    EXPECT_EQ(f.crossbar_rings, 64ull * 64ull * 256ull);
}

TEST(Feasibility, TrimRangeEdgePrunes)
{
    model::FeasibilityParams params;
    // Just inside: sigma such that erf(T / (sigma sqrt 2)) ~ 0.99.
    params.variation.trim_range_nm = 2.0;
    params.variation.sigma_nm = 0.77;
    EXPECT_TRUE(
        model::assessFeasibility(model::DesignPoint{}, params)
            .feasible);
    // Just outside: wider process variation breaks the yield floor.
    params.variation.sigma_nm = 0.80;
    const auto f =
        model::assessFeasibility(model::DesignPoint{}, params);
    EXPECT_FALSE(f.feasible);
    EXPECT_NE(f.reason.find("trim range"), std::string::npos);
    // Closed-form yield matches the Monte-Carlo variation model.
    const photonics::VariationModel mc(params.variation);
    EXPECT_NEAR(f.ring_yield, mc.analyze(200000, 7).yield, 0.005);
}

TEST(Feasibility, LossBudgetEdgePrunes)
{
    model::FeasibilityParams params;
    // Production-grade 0.3 dB/cm closes; demonstrated 3 dB/cm over a
    // 16 cm serpentine cannot (Section 2's waveguide discussion).
    params.waveguide.loss_db_per_cm = 3.0;
    const auto f =
        model::assessFeasibility(model::DesignPoint{}, params);
    EXPECT_FALSE(f.feasible);
    EXPECT_NE(f.reason.find("loss budget"), std::string::npos);
}

TEST(Feasibility, PowerBudgetEdgePrunes)
{
    model::FeasibilityParams params;
    params.max_photonic_power_w = 10.0; // Below the ~50 W bottom-up.
    const auto f =
        model::assessFeasibility(model::DesignPoint{}, params);
    EXPECT_FALSE(f.feasible);
    EXPECT_NE(f.reason.find("power budget"), std::string::npos);
}

TEST(Feasibility, MeshPointsAreAlwaysFeasible)
{
    model::DesignPoint mesh;
    mesh.network = core::NetworkKind::HMesh;
    model::FeasibilityParams params;
    params.max_photonic_power_w = 0.001; // Would prune any crossbar.
    const auto f = model::assessFeasibility(mesh, params);
    EXPECT_TRUE(f.feasible);
    EXPECT_DOUBLE_EQ(f.photonic_power_w, 0.0);
}

// ------------------------------------------------- calibration

TEST(Calibration, FitApplyAndPersistRoundTrip)
{
    // Anchor records: pretend the simulator saw 80% of the model's
    // bandwidth and 150% of its latency on one cell.
    campaign::CampaignSpec spec;
    spec.workloads = {{"FFT", false, nullptr}};
    spec.configs = {core::makeConfig(core::NetworkKind::XBar,
                                     core::MemoryKind::OCM)};

    const model::AnalyticModel m;
    const model::DesignPoint point =
        model::fromConfig(spec.configs[0], "FFT");
    const model::Prediction raw = m.evaluate(point);

    campaign::RunRecord record;
    record.workload = "FFT";
    record.config = spec.configs[0].name();
    record.config_index = 0;
    record.metrics.achieved_bytes_per_second =
        raw.achieved_bytes_per_second * 0.8;
    record.metrics.avg_latency_ns = raw.avg_latency_ns * 1.5;

    model::Calibration calibration;
    calibration.fit(spec, {record}, m);
    ASSERT_TRUE(calibration.fitted());

    const auto applied =
        calibration.apply(raw, record.config, "FFT");
    EXPECT_NEAR(applied.achieved_bytes_per_second,
                record.metrics.achieved_bytes_per_second,
                record.metrics.achieved_bytes_per_second * 1e-9);
    EXPECT_NEAR(applied.avg_latency_ns, record.metrics.avg_latency_ns,
                record.metrics.avg_latency_ns * 1e-9);

    // The config tier generalises to unseen workloads of that config.
    const auto fallback = calibration.lookup(record.config, "Radix");
    EXPECT_NEAR(fallback.bandwidth_scale, 0.8, 1e-9);

    // Save / load round trip preserves factors.
    std::stringstream buffer;
    calibration.save(buffer);
    const model::Calibration loaded =
        model::Calibration::load(buffer);
    EXPECT_NEAR(loaded.lookup(record.config, "FFT").latency_scale,
                1.5, 1e-9);
    EXPECT_NEAR(loaded.lookup(record.config, "Radix").bandwidth_scale,
                0.8, 1e-9);
}

/** A calibration file holding @p rows under the two header lines. */
model::Calibration
loadCalibration(const std::string &rows)
{
    std::istringstream in(
        "# corona-model-calibration v1\n"
        "config,workload,bandwidth_scale,latency_scale,samples\n" +
        rows);
    return model::Calibration::load(in);
}

/** load() of @p rows is fatal, with @p row in the message. */
void
expectLoadFatal(const std::string &rows, const std::string &row)
{
    try {
        loadCalibration(rows);
        ADD_FAILURE() << "accepted: " << rows;
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("\"" + row + "\""),
                  std::string::npos)
            << e.what();
    }
}

TEST(Calibration, LoadRejectsBadNumbers)
{
    EXPECT_NEAR(loadCalibration("XBar/OCM,FFT,0.8,1.5,2\n")
                    .lookup("XBar/OCM", "FFT")
                    .latency_scale,
                1.5, 1e-12);
    for (const char *scale : {"nan", "inf", "-2", "0", "1.5x"}) {
        const std::string bandwidth =
            std::string("XBar/OCM,FFT,") + scale + ",1.5,2";
        expectLoadFatal(bandwidth + "\n", bandwidth);
        const std::string latency =
            std::string("XBar/OCM,FFT,0.8,") + scale + ",2";
        expectLoadFatal(latency + "\n", latency);
    }
    for (const char *samples : {"-1", "12x", "18446744073709551616"}) {
        const std::string row =
            std::string("XBar/OCM,FFT,0.8,1.5,") + samples;
        expectLoadFatal(row + "\n", row);
    }
}

TEST(Calibration, LoadRejectsRepeatedCell)
{
    // Kept, the second row would replace the first for the cell while
    // the config and global tiers averaged both.
    const std::string repeat = "XBar/OCM,Uniform,2,1,1";
    expectLoadFatal("XBar/OCM,Uniform,0.5,1,1\n" + repeat + "\n", repeat);
    // The same workload on another config is another cell.
    const model::Calibration loaded = loadCalibration(
        "XBar/OCM,Uniform,0.5,1,1\nHMesh/OCM,Uniform,2,1,1\n");
    EXPECT_NEAR(loaded.lookup("XBar/OCM", "Uniform").bandwidth_scale, 0.5,
                1e-12);
    EXPECT_NEAR(loaded.lookup("HMesh/OCM", "Uniform").bandwidth_scale, 2.0,
                1e-12);
}

TEST(Calibration, LoadFoldsSampleCountsAtOnce)
{
    const model::Calibration loaded =
        loadCalibration("XBar/OCM,FFT,0.8,1.5,1000000000000000000\n");
    const model::CalibrationFactors &tier =
        loaded.lookup("XBar/OCM", "Radix");
    EXPECT_EQ(tier.samples, 1000000000000000000u);
    EXPECT_NEAR(tier.bandwidth_scale, 0.8, 1e-9);
    EXPECT_NEAR(tier.latency_scale, 1.5, 1e-9);

    // Two rows of 10^19 samples overflow the 64-bit total.
    const std::string first = "XBar/OCM,FFT,0.8,1.5,10000000000000000000";
    const std::string second = "HMesh/OCM,FFT,2,3,10000000000000000000";
    expectLoadFatal(first + "\n" + second + "\n", second);
}

// ----------------------------------------- campaign executor hook

TEST(ModelExecutor, RunsCampaignGridsThroughTheModel)
{
    // Factories are required by expand() but never invoked by the
    // analytic executor — the model works from the workload *name*.
    campaign::CampaignSpec spec;
    spec.name = "model-grid";
    spec.workloads = {{"Uniform", true, workload::makeUniform},
                      {"FFT", false,
                       [] { return workload::makeSplash("FFT"); }}};
    spec.configs = core::paperConfigs();
    spec.base.requests = 1000;

    campaign::RunnerOptions options;
    options.threads = 3;
    options.execute = model::planExecutor();
    campaign::CampaignRunner runner(options);
    campaign::MemorySink memory;
    std::ostringstream csv_stream;
    campaign::CsvSink csv(csv_stream);
    runner.addSink(memory);
    runner.addSink(csv);
    const auto records = runner.run(spec);

    ASSERT_EQ(records.size(), 10u);
    for (const auto &record : records) {
        EXPECT_TRUE(record.ok) << record.error;
        EXPECT_GT(record.metrics.achieved_bytes_per_second, 0.0);
        EXPECT_GT(record.metrics.avg_latency_ns, 0.0);
        EXPECT_GT(record.metrics.offered_bytes_per_second, 0.0);
    }
    // The sink grid reshapes exactly like simulator output.
    const auto grid = memory.grid();
    ASSERT_EQ(grid.size(), 2u);
    ASSERT_EQ(grid[0].size(), 5u);
    // XBar/OCM dominates LMesh/ECM on Uniform, as in Figure 9.
    EXPECT_GT(grid[0][4].achieved_bytes_per_second,
              grid[0][0].achieved_bytes_per_second);

    // Deterministic across thread counts (pure closed forms).
    campaign::RunnerOptions serial_options;
    serial_options.threads = 1;
    serial_options.execute = model::planExecutor();
    campaign::CampaignRunner serial(serial_options);
    std::ostringstream serial_csv_stream;
    campaign::CsvSink serial_csv(serial_csv_stream);
    serial.addSink(serial_csv);
    serial.run(spec);
    EXPECT_EQ(csv_stream.str(), serial_csv_stream.str());
}

TEST(ModelExecutor, UnknownWorkloadFailsTheCellNotTheCampaign)
{
    campaign::CampaignSpec spec;
    spec.workloads = {{"NoSuchBenchmark", true, workload::makeUniform},
                      {"Uniform", true, workload::makeUniform}};
    spec.configs = {core::makeConfig(core::NetworkKind::XBar,
                                     core::MemoryKind::OCM)};

    campaign::RunnerOptions options;
    options.execute = model::planExecutor();
    campaign::CampaignRunner runner(options);
    const auto records = runner.run(spec);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_NE(records[0].error.find("NoSuchBenchmark"),
              std::string::npos);
    EXPECT_TRUE(records[1].ok);
}

TEST(ModelExecutor, OutOfRangeBandwidthScaleFailsTheCell)
{
    // 1e300 channels do not fit a size_t: a located error, not an
    // undefined cast, and a failed cell rather than an aborted
    // campaign at any worker count.
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

    campaign::CampaignSpec spec;
    spec.workloads = {{"Uniform", true, workload::makeUniform}};
    spec.configs = {huge, core::makeConfig(core::NetworkKind::HMesh,
                                           core::MemoryKind::OCM)};
    campaign::RunnerOptions options;
    options.threads = 2;
    options.execute = model::planExecutor();
    const auto records = campaign::CampaignRunner(options).run(spec);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_NE(records[0].error.find("memory_bandwidth_scale"),
              std::string::npos);
    EXPECT_TRUE(records[1].ok) << records[1].error;
}

// ------------------------------------------------- design space

TEST(DesignSpace, SizeCollapsesPhotonicAxesForMeshes)
{
    model::DesignSpace space;
    space.clusters = {64};
    space.channel_waveguides = {2, 4};
    space.wavelengths_per_guide = {32, 64};
    space.token_schemes = {model::TokenScheme::Channel,
                           model::TokenScheme::Slot};
    space.networks = {core::NetworkKind::XBar,
                      core::NetworkKind::HMesh};
    space.memories = {core::MemoryKind::OCM};
    space.memory_channels = {1};
    space.workloads = {"Uniform"};
    // XBar: 2*2*2 = 8 photonic combos; HMesh: 1. Total 9.
    EXPECT_EQ(space.size(), 9u);

    model::ExploreOptions options;
    options.space = space;
    const auto result = model::explore(options);
    EXPECT_EQ(result.points.size(), 9u);
    EXPECT_EQ(result.enumerated, 9u);
}

TEST(DesignSpace, ExplorationIsDeterministic)
{
    model::ExploreOptions options;
    options.space.clusters = {16, 64};
    options.space.channel_waveguides = {2, 4};
    options.space.wavelengths_per_guide = {32, 64};
    options.space.workloads = {"Uniform", "FFT"};
    options.sample = 12;
    options.seed = 99;

    const auto a = model::explore(options);
    const auto b = model::explore(options);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].point.label(),
                  b.points[i].point.label());
        EXPECT_DOUBLE_EQ(
            a.points[i].prediction.achieved_bytes_per_second,
            b.points[i].prediction.achieved_bytes_per_second);
    }
    EXPECT_LT(a.points.size(), 16u); // Sampling actually thinned.
    EXPECT_GT(a.points.size(), 2u);
}

TEST(DesignSpace, ParetoFrontierIsCorrectOnSyntheticPoints)
{
    const auto mk = [](double bw, double lat, double power) {
        model::EvaluatedPoint p;
        p.feasibility.feasible = true;
        p.prediction.achieved_bytes_per_second = bw;
        p.prediction.avg_latency_ns = lat;
        p.prediction.network_power_w = power;
        return p;
    };
    std::vector<model::EvaluatedPoint> points = {
        mk(10, 100, 30), // 0: frontier (best bandwidth).
        mk(5, 50, 30),   // 1: frontier (best latency).
        mk(5, 100, 10),  // 2: frontier (best power).
        mk(4, 120, 40),  // 3: dominated by 1 and 2.
        mk(10, 90, 30),  // 4: dominates 0.
    };
    points.push_back(mk(100, 1, 1)); // 5: infeasible utopia.
    points.back().feasibility.feasible = false;

    const auto frontier = model::paretoFrontier(points);
    EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 2, 4}));

    const auto ranked = model::rankByObjective(
        points, model::Objective::Bandwidth);
    ASSERT_FALSE(ranked.empty());
    EXPECT_TRUE(ranked[0] == 0 || ranked[0] == 4);
}

} // namespace
