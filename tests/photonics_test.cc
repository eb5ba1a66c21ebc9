/**
 * @file
 * Unit tests for the waveguide model, the component inventory (Table 2),
 * the loss-budget solver, and optical clocking.
 */

#include <gtest/gtest.h>

#include "photonics/inventory.hh"
#include "photonics/loss_budget.hh"
#include "photonics/optical_clock.hh"
#include "photonics/waveguide.hh"
#include "sim/clock.hh"

namespace {

using namespace corona;
using namespace corona::photonics;

TEST(Waveguide, DelayMatchesPaperConstant)
{
    // Light covers ~2 cm per 5 GHz clock (Section 3.2.1).
    EXPECT_EQ(propagationDelay(2.0), 200u);
    // Full 16 cm serpentine = 8 clocks.
    Waveguide serpentine(16.0);
    EXPECT_EQ(serpentine.delay(), 1600u);
}

TEST(Waveguide, LossComposition)
{
    WaveguideParams params;
    params.loss_db_per_cm = 0.5;
    params.bend_loss_db = 0.1;
    Waveguide wg(4.0, params);
    wg.setBends(3);
    wg.setRingPassBys(100);
    wg.setRingThroughLossDb(0.002);
    EXPECT_NEAR(wg.lossDb(), 4.0 * 0.5 + 3 * 0.1 + 100 * 0.002, 1e-12);
}

TEST(Waveguide, RejectsNegativeLength)
{
    EXPECT_THROW(Waveguide(-1.0), std::invalid_argument);
}

// -------------------------------------------------------------------
// Table 2: optical resource inventory.
// -------------------------------------------------------------------

TEST(Inventory, Table2MemoryRow)
{
    const Inventory inv;
    const auto &memory = inv.row("Memory");
    EXPECT_EQ(memory.waveguides, 128u);
    EXPECT_EQ(memory.ring_resonators, 16u * 1024u);
}

TEST(Inventory, Table2CrossbarRow)
{
    const Inventory inv;
    const auto &xbar = inv.row("Crossbar");
    EXPECT_EQ(xbar.waveguides, 256u);
    EXPECT_EQ(xbar.ring_resonators, 1024u * 1024u);
}

TEST(Inventory, Table2BroadcastRow)
{
    const Inventory inv;
    const auto &bcast = inv.row("Broadcast");
    EXPECT_EQ(bcast.waveguides, 1u);
    EXPECT_EQ(bcast.ring_resonators, 8u * 1024u);
}

TEST(Inventory, Table2ArbitrationRow)
{
    const Inventory inv;
    const auto &arb = inv.row("Arbitration");
    EXPECT_EQ(arb.waveguides, 2u);
    EXPECT_EQ(arb.ring_resonators, 8u * 1024u);
}

TEST(Inventory, Table2ClockRowAndTotals)
{
    const Inventory inv;
    const auto &clock = inv.row("Clock");
    EXPECT_EQ(clock.waveguides, 1u);
    EXPECT_EQ(clock.ring_resonators, 64u);
    EXPECT_EQ(inv.totalWaveguides(), 388u); // Table 2 total.
    // Table 2: ~1056 K rings.
    EXPECT_EQ(inv.totalRings(), 1024u * 1024u + 16u * 1024u +
                                    8u * 1024u + 8u * 1024u + 64u);
    EXPECT_NEAR(static_cast<double>(inv.totalRings()) / 1024.0, 1056.0,
                1.0);
}

TEST(Inventory, ScalesWithClusterCount)
{
    InventoryParams params;
    params.clusters = 16;
    params.memory_controllers = 16;
    const Inventory inv(params);
    EXPECT_EQ(inv.row("Crossbar").waveguides, 64u);
    EXPECT_EQ(inv.row("Crossbar").ring_resonators, 16u * 16u * 256u);
    EXPECT_THROW(inv.row("Nonexistent"), std::out_of_range);
}

// -------------------------------------------------------------------
// Loss budget.
// -------------------------------------------------------------------

TEST(LossBudget, PathAccumulates)
{
    OpticalPath path;
    path.add("a", 1.5);
    path.add("b", 2.5);
    EXPECT_DOUBLE_EQ(path.totalLossDb(), 4.0);
    EXPECT_EQ(path.elements().size(), 2u);
    EXPECT_THROW(path.add("neg", -0.1), std::invalid_argument);
}

TEST(LossBudget, SolverClosesLink)
{
    OpticalPath path;
    path.add("link", 10.0);
    BudgetParams params;
    params.detector_sensitivity_dbm = -20.0;
    params.margin_db = 3.0;
    const BudgetResult r = solveBudget(path, 1000, params);
    EXPECT_DOUBLE_EQ(r.path_loss_db, 10.0);
    EXPECT_DOUBLE_EQ(r.required_at_source_dbm, -7.0);
    // -7 dBm ~ 0.2 mW per wavelength; 1000 instances ~ 0.2 W optical.
    EXPECT_NEAR(r.total_optical_power_w, 0.1995, 0.01);
    EXPECT_NEAR(r.total_electrical_power_w,
                r.total_optical_power_w / params.wall_plug_efficiency,
                1e-9);
}

TEST(LossBudget, CoronaCrossbarBudgetIsClosable)
{
    // Worst-case data path: one of four bundle guides carries 64
    // wavelengths past 64 clusters' worth of rings (64 rings per
    // cluster on that guide).
    const OpticalPath path =
        crossbarWorstCasePath(64, 16.0, 64 * 64);
    // The budget must be meaningfully positive but far below amplifier
    // territory (< 20 dB excess; the ideal 1:64 split conserves total
    // power and is excluded by design).
    EXPECT_GT(path.totalLossDb(), 5.0);
    EXPECT_LT(path.totalLossDb(), 20.0);

    // All 64 channels x 256 lambdas must be lit simultaneously.
    const BudgetResult r = solveBudget(path, 64 * 256);
    EXPECT_GT(r.total_electrical_power_w, 0.5);
    EXPECT_LT(r.total_electrical_power_w, 20.0);
}

TEST(LossBudget, SolverRejectsZeroInstances)
{
    OpticalPath path;
    path.add("x", 1.0);
    EXPECT_THROW(solveBudget(path, 0), std::invalid_argument);
}

// -------------------------------------------------------------------
// Optical clock distribution.
// -------------------------------------------------------------------

TEST(OpticalClock, PhaseOffsetsAreEighthClocks)
{
    const OpticalClock clock(64, sim::coronaClock(), 8);
    EXPECT_EQ(clock.hopTime(), 25u); // 8 x 200 ps / 64.
    EXPECT_EQ(clock.phaseOffset(0), 0u);
    EXPECT_EQ(clock.phaseOffset(1), 25u);
    // Cluster 8 is a full clock downstream: back in phase.
    EXPECT_EQ(clock.phaseOffset(8), 0u);
    EXPECT_EQ(clock.phaseOffset(9), 25u);
}

TEST(OpticalClock, RetimingOnlyAtWrap)
{
    const OpticalClock clock(64, sim::coronaClock(), 8);
    EXPECT_EQ(clock.retimingPenalty(3, 10), 0u);
    EXPECT_EQ(clock.retimingPenalty(10, 3), 200u); // Crosses the wrap.
    EXPECT_EQ(clock.retimingPenalty(63, 0), 200u);
    EXPECT_EQ(clock.retimingPenalty(0, 63), 0u);
}

TEST(OpticalClock, ValidatesArguments)
{
    EXPECT_THROW(OpticalClock(0, sim::coronaClock()),
                 std::invalid_argument);
    const OpticalClock clock(64, sim::coronaClock(), 8);
    EXPECT_THROW(clock.phaseOffset(64), std::out_of_range);
    EXPECT_THROW(clock.crossesWrap(64, 0), std::out_of_range);
}

} // namespace
