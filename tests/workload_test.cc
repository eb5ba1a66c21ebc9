/**
 * @file
 * Unit and property tests for the workload models: synthetic pattern
 * destination functions, SPLASH-2 calibration (offered loads versus the
 * bandwidth classes of Figure 9), burst behaviour, determinism.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "sim/rng.hh"
#include "workload/registry.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;
using topology::Geometry;
using workload::MissRequest;
using workload::Pattern;
using workload::SplashParams;
using workload::SplashWorkload;
using workload::SyntheticWorkload;

TEST(Synthetic, DefaultsMatchTable3)
{
    const Geometry geom;
    const std::pair<Pattern, const char *> patterns[] = {
        {Pattern::Uniform, "Uniform"},
        {Pattern::HotSpot, "Hot Spot"},
        {Pattern::Tornado, "Tornado"},
        {Pattern::Transpose, "Transpose"},
    };
    for (const auto &[pattern, name] : patterns) {
        SyntheticWorkload workload(pattern, geom);
        EXPECT_EQ(workload.name(), name);
        EXPECT_EQ(workload.paperRequests(), 1'000'000u) << name;
        EXPECT_EQ(workload.threads(), 1024u) << name;
    }
}

TEST(Synthetic, HotSpotAlwaysTargetsHotCluster)
{
    const Geometry geom;
    SyntheticWorkload hot(Pattern::HotSpot, geom);
    sim::Rng rng(1);
    for (std::size_t t = 0; t < 1024; t += 37) {
        const MissRequest req = hot.next(t, 0, rng);
        EXPECT_EQ(req.home, 0u);
    }
}

TEST(Synthetic, TornadoMatchesPaperFormula)
{
    const Geometry geom;
    SyntheticWorkload tornado(Pattern::Tornado, geom);
    sim::Rng rng(1);
    // Cluster (i, j) -> ((i + k/2 - 1) % k, (j + k/2 - 1) % k), k = 8.
    for (topology::ClusterId src = 0; src < 64; ++src) {
        const auto dst = tornado.destinationOf(src, rng);
        const auto cs = geom.coordOf(src);
        const auto cd = geom.coordOf(dst);
        EXPECT_EQ(cd.x, (cs.x + 3) % 8);
        EXPECT_EQ(cd.y, (cs.y + 3) % 8);
    }
}

TEST(Synthetic, TransposeSwapsCoordinates)
{
    const Geometry geom;
    SyntheticWorkload transpose(Pattern::Transpose, geom);
    sim::Rng rng(1);
    for (topology::ClusterId src = 0; src < 64; ++src) {
        const auto dst = transpose.destinationOf(src, rng);
        const auto cs = geom.coordOf(src);
        const auto cd = geom.coordOf(dst);
        EXPECT_EQ(cd.x, cs.y);
        EXPECT_EQ(cd.y, cs.x);
        // Diagonal clusters map to themselves.
        if (cs.x == cs.y) {
            EXPECT_EQ(dst, src);
        }
    }
}

TEST(Synthetic, UniformCoversAllDestinations)
{
    const Geometry geom;
    SyntheticWorkload uniform(Pattern::Uniform, geom);
    sim::Rng rng(7);
    std::set<topology::ClusterId> seen;
    for (int i = 0; i < 4000; ++i)
        seen.insert(uniform.destinationOf(5, rng));
    EXPECT_EQ(seen.size(), 64u);
}

TEST(Synthetic, LinesAreUniquePerRequest)
{
    const Geometry geom;
    SyntheticWorkload uniform(Pattern::Uniform, geom);
    sim::Rng rng(7);
    std::set<topology::Addr> lines;
    for (int i = 0; i < 5000; ++i) {
        const MissRequest req = uniform.next(3, 0, rng);
        EXPECT_TRUE(lines.insert(req.line).second)
            << "duplicate line would coalesce in the MSHRs";
    }
}

TEST(Synthetic, OfferedLoadSaturatesNetworks)
{
    const Geometry geom;
    SyntheticWorkload uniform(Pattern::Uniform, geom);
    // 1024 threads at one 64 B miss per 10 ns = ~6.5 TB/s offered:
    // above even the crossbar-fed memory system (10.24 TB/s is the
    // ceiling; ECM at 0.96 TB/s is swamped).
    EXPECT_GT(uniform.offeredBytesPerSecond(), 5e12);
    EXPECT_THROW(uniform.next(99999, 0,
                              *std::make_unique<sim::Rng>(1)),
                 std::out_of_range);
}

TEST(Splash, SuiteMatchesTable3)
{
    const auto suite = workload::splashSuite();
    // Table 3: benchmark, data set and request count, in table order.
    const struct
    {
        const char *name;
        const char *dataset;
        std::uint64_t requests;
    } table3[] = {
        {"Barnes", "64 K particles", 7'200'000},
        {"Cholesky", "tk29.O", 600'000},
        {"FFT", "16 M points", 176'000'000},
        {"FMM", "1 M particles", 1'800'000},
        {"LU", "2048x2048 matrix", 34'000'000},
        {"Ocean", "2050x2050 grid", 240'000'000},
        {"Radiosity", "roomlarge", 4'200'000},
        {"Radix", "64 M integers", 189'000'000},
        {"Raytrace", "balls4", 700'000},
        {"Volrend", "head", 3'600'000},
        {"Water-Sp", "32 K molecules", 3'200'000},
    };
    ASSERT_EQ(suite.size(), std::size(table3));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, table3[i].name);
        EXPECT_EQ(suite[i].dataset, table3[i].dataset) << table3[i].name;
        EXPECT_EQ(suite[i].paper_requests, table3[i].requests)
            << table3[i].name;
    }
    EXPECT_THROW(workload::splashParams("NotABenchmark"),
                 std::out_of_range);
}

TEST(Splash, BandwidthClassesMatchFigure9)
{
    // Low-demand applications that the paper says run fine on LMesh/ECM
    // must offer less than the ECM's 0.96 TB/s...
    for (const auto *name : {"Barnes", "Radiosity", "Volrend", "Water-Sp"}) {
        const auto wl = workload::registryFactory(name)();
        EXPECT_LT(wl->offeredBytesPerSecond(), 0.96e12) << name;
    }
    // ...FMM needs somewhat more than the ECM provides...
    const auto fmm = workload::registryFactory("FMM")();
    EXPECT_GT(fmm->offeredBytesPerSecond(), 0.96e12);
    EXPECT_LT(fmm->offeredBytesPerSecond(), 2e12);
    // ...and the memory-intensive four demand 2-5+ TB/s.
    for (const auto *name : {"Cholesky", "FFT", "Ocean", "Radix"}) {
        const auto wl = workload::registryFactory(name)();
        EXPECT_GT(wl->offeredBytesPerSecond(), 2e12) << name;
        EXPECT_LT(wl->offeredBytesPerSecond(), 6e12) << name;
    }
}

TEST(Splash, OnlyLuAndRaytraceAreBursty)
{
    for (const auto &params : workload::splashSuite()) {
        const bool bursty =
            params.name == "LU" || params.name == "Raytrace";
        EXPECT_EQ(params.burst.enabled, bursty) << params.name;
        if (bursty) {
            EXPECT_TRUE(params.burst.hot_block) << params.name;
        }
    }
}

TEST(Splash, BurstsAlignToEpochBoundaries)
{
    SplashWorkload lu(workload::splashParams("LU"));
    sim::Rng rng(3);
    const auto epoch = workload::splashParams("LU").burst.epoch_length;
    // First request of an epoch waits until the next boundary.
    const MissRequest first = lu.next(0, 100, rng);
    EXPECT_GE(100 + first.think_time, epoch);
    // Requests within the burst are nearly back to back.
    const MissRequest second = lu.next(0, epoch + 500, rng);
    EXPECT_LT(second.think_time, epoch / 10);
}

TEST(Splash, HotBlockConcentratesDestinations)
{
    const auto params = workload::splashParams("LU");
    SplashWorkload lu(params);
    sim::Rng rng(4);
    // Sample many epoch-1 burst requests across threads: the hot home
    // (cluster 1 in epoch 1) must be heavily over-represented versus
    // the uniform 1/64 share, but not absorb everything (the matrix
    // block interleaves across controllers).
    std::map<topology::ClusterId, int> histogram;
    const int samples_per_thread = 8;
    for (std::size_t t = 0; t < 512; ++t) {
        (void)lu.next(t, 0, rng); // Barrier-aligned request (epoch 1).
        for (int i = 0; i < samples_per_thread; ++i)
            ++histogram[lu.next(t, 100, rng).home];
    }
    const int total = 512 * samples_per_thread;
    const double hot_share =
        static_cast<double>(histogram[1]) / total;
    EXPECT_NEAR(hot_share, params.burst.hot_fraction, 0.05)
        << "hot-block share must track the calibrated fraction";
    EXPECT_GT(hot_share, 3.0 / 64.0)
        << "hot home must be far above the uniform share";
}

TEST(Splash, NonburstyRequestsSpreadAcrossHomes)
{
    SplashWorkload fft(workload::splashParams("FFT"));
    sim::Rng rng(5);
    std::set<topology::ClusterId> homes;
    for (int i = 0; i < 2000; ++i)
        homes.insert(fft.next(0, 0, rng).home);
    EXPECT_EQ(homes.size(), 64u);
}

TEST(Splash, WriteFractionApproximatelyRespected)
{
    SplashWorkload radix(workload::splashParams("Radix"));
    sim::Rng rng(6);
    int writes = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        writes += radix.next(1, 0, rng).write ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / n,
                workload::splashParams("Radix").write_fraction, 0.03);
}

TEST(Splash, DeterministicGivenSeed)
{
    SplashWorkload a(workload::splashParams("FFT"));
    SplashWorkload b(workload::splashParams("FFT"));
    sim::Rng ra(42), rb(42);
    for (int i = 0; i < 200; ++i) {
        const MissRequest x = a.next(7, 0, ra);
        const MissRequest y = b.next(7, 0, rb);
        EXPECT_EQ(x.line, y.line);
        EXPECT_EQ(x.think_time, y.think_time);
        EXPECT_EQ(x.home, y.home);
        EXPECT_EQ(x.write, y.write);
    }
}

TEST(Splash, RejectsBadParameters)
{
    SplashParams bad = workload::splashParams("FFT");
    bad.mean_think = 0;
    EXPECT_THROW(SplashWorkload{bad}, std::invalid_argument);
    SplashParams bad2 = workload::splashParams("LU");
    bad2.burst.epoch_length = 0;
    EXPECT_THROW(SplashWorkload{bad2}, std::invalid_argument);
}

// -------------------------------------------------------------------
// Property sweep: offered load matches the think-time calibration for
// every benchmark in the suite.
// -------------------------------------------------------------------

class SplashCalibration
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SplashCalibration, EmpiricalRateMatchesOfferedLoad)
{
    const auto params = workload::splashParams(GetParam());
    SplashWorkload wl(params);
    sim::Rng rng(11);
    // Simulate one thread's issue clock; the mean gap must track the
    // calibrated think time (burst models included, since bursts give
    // back the time they save inside the epoch waits).
    sim::Tick clock = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        clock += wl.next(0, clock, rng).think_time;
    const double mean_gap = static_cast<double>(clock) / n;
    const double expected = static_cast<double>(params.mean_think);
    if (!params.burst.enabled) {
        EXPECT_NEAR(mean_gap, expected, expected * 0.10) << GetParam();
    } else {
        // Bursty models trade gap regularity for epoch alignment; the
        // long-run rate stays within 2x of the calibration.
        EXPECT_LT(mean_gap, expected * 2.0) << GetParam();
        EXPECT_GT(mean_gap, expected * 0.4) << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SplashCalibration,
    ::testing::Values("Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean",
                      "Radiosity", "Radix", "Raytrace", "Volrend",
                      "Water-Sp"));

} // namespace
