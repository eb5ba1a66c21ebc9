/**
 * @file
 * Ablation for Section 3.3's DRAM-architecture argument: a
 * conventional open-page DIMM activates a full multi-KB row per row
 * miss, while Corona's OCM reads exactly one cache line from one mat.
 * With 1024 threads and interleaved memory, row-buffer locality is
 * poor, so the conventional system moves an order of magnitude more
 * bits — and energy — per useful line.
 */

#include <iostream>
#include <vector>

#include "campaign/parallel_for.hh"
#include "memory/conventional_dram.hh"
#include "memory/dram.hh"
#include "sim/rng.hh"
#include "stats/report.hh"

int
main()
{
    using namespace corona;
    using memory::ConventionalDram;
    using memory::DramModule;

    // Closed-form comparison across row-buffer hit rates, swept on
    // the campaign engine's worker pool (rows printed in sweep order).
    constexpr double kHitRates[] = {0.9, 0.5, 0.2, 0.05, 0.0};
    constexpr std::size_t kCells = std::size(kHitRates);
    std::vector<memory::DramEnergyComparison> comparisons(kCells);
    campaign::parallelFor(kCells, /*threads=*/0,
                          [&](std::size_t i) {
                              comparisons[i] =
                                  memory::compareDramEnergy(kHitRates[i]);
                          });

    stats::TableWriter closed(
        "Energy per 64 B line vs row-buffer locality (closed form)");
    closed.setHeader({"row hit rate", "conventional (pJ)",
                      "Corona mat (pJ)", "ratio"});
    for (std::size_t i = 0; i < kCells; ++i) {
        const auto &cmp = comparisons[i];
        closed.addRow({stats::formatDouble(kHitRates[i], 2),
                       stats::formatDouble(cmp.conventional_pj_per_line, 0),
                       stats::formatDouble(cmp.corona_pj_per_line, 0),
                       stats::formatDouble(cmp.ratio, 1) + "x"});
    }
    closed.print(std::cout);

    // Monte-Carlo: a thousand-thread interleaved miss stream hitting
    // one controller's DRAM. Random line addresses across a large
    // footprint model the paper's "chances of the next access being to
    // an open page are small". The two DRAM models are independent, so
    // each runs on its own worker with its own Rng; seeding both with
    // 11 keeps the two address streams identical to each other (and to
    // the historical interleaved loop).
    ConventionalDram conventional;
    DramModule corona_dram;
    const int accesses = 200'000;
    campaign::parallelFor(2, /*threads=*/0, [&](std::size_t m) {
        sim::Rng rng(11);
        sim::Tick now = 0;
        for (int i = 0; i < accesses; ++i) {
            const topology::Addr addr = rng.below(1ull << 30) * 64;
            if (m == 0)
                conventional.access(addr, now);
            else
                corona_dram.access(addr, now);
            now += 400; // One line every 0.4 ns at 160 GB/s.
        }
    });

    std::cout << "\nInterleaved 1024-thread stream ("
              << accesses << " line accesses):\n"
              << "  conventional row-hit rate: "
              << stats::formatDouble(conventional.rowHitRate() * 100, 1)
              << " %\n"
              << "  conventional bits activated per bit used: "
              << stats::formatDouble(conventional.activationOverhead(), 1)
              << "x  (paper: \"an order of magnitude more bits\")\n"
              << "  conventional energy/line: "
              << stats::formatDouble(conventional.energyPerUsefulBitPj() *
                                         64 * 8, 0)
              << " pJ vs Corona mat: "
              << stats::formatDouble(
                     corona_dram.params().access_energy_pj, 0)
              << " pJ\n";
    return 0;
}
