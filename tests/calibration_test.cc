/**
 * @file
 * End-to-end calibration checks: every SPLASH-2 model, run on the
 * Corona configuration, must achieve close to its offered load (the
 * crossbar + OCM deliver every benchmark's demand, Figure 9's right
 * column), and the paper's per-benchmark classification must hold.
 */

#include <gtest/gtest.h>

#include "corona/simulation.hh"
#include "workload/registry.hh"
#include "workload/splash.hh"

namespace {

using namespace corona;
using core::MemoryKind;
using core::NetworkKind;
using core::SimParams;

class BenchmarkCalibration
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BenchmarkCalibration, CoronaDeliversTheOfferedLoad)
{
    const std::string name = GetParam();
    auto workload = workload::registryFactory(name)();
    const double offered = workload->offeredBytesPerSecond();

    SimParams params;
    params.requests = 6000;
    params.warmup_requests = 1500;
    const auto metrics = core::runExperiment(
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM), *workload,
        params);

    // Never exceeds the demand (bursty schedules wobble around their
    // long-run average over finite measurement windows)...
    const auto burst = workload::splashParams(name).burst;
    const double upper = burst.enabled ? 1.6 : 1.15;
    EXPECT_LE(metrics.achieved_bytes_per_second, offered * upper) << name;
    // ...and the Corona configuration satisfies at least ~70% of it for
    // every benchmark (Figure 9: XBar/OCM tracks the offered column).
    EXPECT_GE(metrics.achieved_bytes_per_second, offered * 0.70) << name;
    // Latency on the uncongested Corona stays within a small multiple
    // of the raw memory round trip for non-bursty workloads.
    if (!burst.enabled) {
        EXPECT_LT(metrics.avg_latency_ns, 150.0) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Splash, BenchmarkCalibration,
    ::testing::Values("Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean",
                      "Radiosity", "Radix", "Raytrace", "Volrend",
                      "Water-Sp"));

TEST(Calibration, EcmBoundClassificationMatchesPaper)
{
    // Section 5 partitions the suite by whether the ECM's 0.96 TB/s
    // satisfies the benchmark. The bandwidth test applies to the
    // non-bursty models; LU and Raytrace are limited by burst latency,
    // not average bandwidth (the paper makes the same distinction).
    const std::set<std::string> adequate = {
        "Barnes", "Radiosity", "Volrend", "Water-Sp",
    };
    for (const auto &params : workload::splashSuite()) {
        if (params.burst.enabled)
            continue;
        const workload::SplashWorkload model(params);
        const bool fits = model.offeredBytesPerSecond() < 0.96e12;
        EXPECT_EQ(fits, adequate.contains(params.name)) << params.name;
    }
}

} // namespace
