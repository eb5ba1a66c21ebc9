/**
 * @file
 * Unit tests for the power models: mesh dynamic power, crossbar fixed
 * power, the bottom-up photonic estimate, and the CACTI-lite digital
 * power bookends. Memory interconnect power is checked with its
 * systems in memory_test.
 */

#include <gtest/gtest.h>

#include "photonics/inventory.hh"
#include "photonics/loss_budget.hh"
#include "power/cache_power.hh"
#include "power/network_power.hh"

namespace {

using namespace corona;

TEST(NetworkPower, XbarIsContinuous26W)
{
    EXPECT_DOUBLE_EQ(power::xbarNetworkPowerW(), 26.0);
    EXPECT_DOUBLE_EQ(power::xbarContinuousPowerW, 26.0);
}

TEST(NetworkPower, MeshDynamicPowerFromHops)
{
    // 196 pJ per transaction-hop (Section 4). 1e9 hops over 1 ms:
    // 196e-3 J / 1e-3 s = 196 W.
    const double w =
        power::meshNetworkPowerW(1'000'000'000ull, sim::oneMillisecond);
    EXPECT_NEAR(w, 196.0, 1e-9);
    EXPECT_THROW(power::meshNetworkPowerW(1, 0), std::invalid_argument);
}

TEST(NetworkPower, MeshPowerScalesWithTraffic)
{
    const double low =
        power::meshNetworkPowerW(1'000'000, sim::oneMillisecond);
    const double high =
        power::meshNetworkPowerW(100'000'000, sim::oneMillisecond);
    EXPECT_NEAR(high / low, 100.0, 1e-9);
}

TEST(PhotonicPower, BottomUpEstimateNearPaper39W)
{
    // Paper: "photonic interconnect power (including the analog circuit
    // layer and the laser power in the photonic die) to be 39 W".
    const photonics::Inventory inventory;
    const auto path = photonics::crossbarWorstCasePath(64, 16.0, 64 * 64);
    const auto budget = photonics::solveBudget(path, 64 * 256);
    const auto breakdown =
        power::photonicInterconnectPower(inventory, budget);
    EXPECT_GT(breakdown.total_w, 25.0);
    EXPECT_LT(breakdown.total_w, 55.0);
    // Trimming ~1.06 M rings dominates the fixed cost.
    EXPECT_GT(breakdown.trimming_w, 15.0);
    EXPECT_NEAR(breakdown.total_w,
                breakdown.laser_w + breakdown.trimming_w +
                    breakdown.modulator_w + breakdown.receiver_w,
                1e-9);
}

TEST(CachePower, EnergyGrowsWithCapacityAndAssociativity)
{
    const auto l1 = power::estimateCacheEnergy({32 * 1024, 4, 64});
    const auto l2 = power::estimateCacheEnergy({4ull << 20, 16, 64});
    EXPECT_GT(l2.read_energy_pj, l1.read_energy_pj);
    EXPECT_GT(l2.leakage_mw, l1.leakage_mw);
    EXPECT_GT(l1.write_energy_pj, l1.read_energy_pj);
    // Sanity band for a 16 nm 32 KB L1: a few pJ.
    EXPECT_GT(l1.read_energy_pj, 1.0);
    EXPECT_LT(l1.read_energy_pj, 10.0);
    EXPECT_THROW(power::estimateCacheEnergy({0, 4, 64}),
                 std::invalid_argument);
}

TEST(CachePower, DigitalPowerBookendsMatchSection311)
{
    // Paper: "Total processor, cache, memory controller and hub power
    // ... between 82 watts (Silverthorne based) and 155 watts (Penryn
    // based)."
    const auto est = power::estimateDigitalPower();
    EXPECT_NEAR(est.low_w, 82.0, 5.0);
    EXPECT_NEAR(est.high_w, 155.0, 8.0);
    EXPECT_LT(est.low_w, est.high_w);
}

} // namespace
