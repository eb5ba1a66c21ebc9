/**
 * @file
 * The agreement floor of the fig8/fig9 grid (all 15 workloads x the 5
 * paper configurations): two replicates with different derived seeds
 * must agree per cell, achieved bandwidth within 15% and latency
 * within 30%. Any model of the grid fitted on one replicate can
 * predict an independent one no better than the replicates agree with
 * each other, so this is the bar such a model is held to.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "corona/knobs.hh"
#include "workload/registry.hh"
#include "workload/splash.hh"

namespace {

using namespace corona;

/** The fig9 grid at 4,000 requests after 800 warm-up, seeded per
 * cell from @p campaign_seed. */
campaign::CampaignSpec
figGridSpec(std::uint64_t campaign_seed)
{
    campaign::CampaignSpec spec;
    spec.name = "fig9-agreement";
    spec.workloads = {
        {"Uniform", true, workload::registryFactory("Uniform")},
        {"Hot Spot", true, workload::registryFactory("Hot Spot")},
        {"Tornado", true, workload::registryFactory("Tornado")},
        {"Transpose", true, workload::registryFactory("Transpose")},
    };
    for (const auto &params : workload::splashSuite()) {
        spec.workloads.push_back(
            {params.name, false, workload::registryFactory(params.name)});
    }
    spec.configs = core::paperConfigs();
    spec.base.requests = 4000;
    spec.base.warmup_requests = 800;
    spec.campaign_seed = campaign_seed;
    spec.seed_policy = campaign::SeedPolicy::Derived;
    return spec;
}

TEST(ModelAgreement, ReplicatesOfTheFig9GridAgreePerCell)
{
    // At this budget the widest gaps are about 11% (bandwidth) and
    // 12% (latency).
    const auto a = campaign::CampaignRunner().run(figGridSpec(11));
    const auto b = campaign::CampaignRunner().run(figGridSpec(12));
    ASSERT_EQ(a.size(), 75u);
    ASSERT_EQ(b.size(), 75u);

    double worst_bw_gap = 0.0;
    double worst_lat_gap = 0.0;
    std::string worst_bw_cell;
    std::string worst_lat_cell;
    for (std::size_t i = 0; i < b.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        ASSERT_EQ(a[i].workload, b[i].workload);
        ASSERT_EQ(a[i].config, b[i].config);
        const std::string cell = b[i].workload + " on " + b[i].config;

        const double bw_a = a[i].metrics.achieved_bytes_per_second;
        const double bw_b = b[i].metrics.achieved_bytes_per_second;
        ASSERT_GT(bw_b, 0.0) << cell;
        const double bw_gap = std::abs(bw_a - bw_b) / bw_b;
        EXPECT_LE(bw_gap, 0.15) << cell << ": " << bw_a / 1e12
                                << " TB/s against " << bw_b / 1e12
                                << " TB/s";
        if (bw_gap > worst_bw_gap) {
            worst_bw_gap = bw_gap;
            worst_bw_cell = cell;
        }

        const double lat_a = a[i].metrics.avg_latency_ns;
        const double lat_b = b[i].metrics.avg_latency_ns;
        ASSERT_GT(lat_b, 0.0) << cell;
        const double lat_gap = std::abs(lat_a - lat_b) / lat_b;
        EXPECT_LE(lat_gap, 0.30)
            << cell << ": " << lat_a << " ns against " << lat_b << " ns";
        if (lat_gap > worst_lat_gap) {
            worst_lat_gap = lat_gap;
            worst_lat_cell = cell;
        }
    }
    std::cerr << "replicate agreement: worst bandwidth gap "
              << worst_bw_gap * 100.0 << "% (" << worst_bw_cell
              << "), worst latency gap " << worst_lat_gap * 100.0
              << "% (" << worst_lat_cell << ")\n";
}

} // namespace
