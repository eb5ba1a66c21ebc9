/**
 * @file
 * Ablation for Section 2's integration challenge: sweep the
 * fabrication-variation sigma of the ~1.06 M ring resonators and
 * report ring yield, whole-crossbar yield without redundancy, and the
 * total trimming power needed to hold every correctable ring on its
 * comb line (the dominant fixed term in the 26 W crossbar budget).
 */

#include <iostream>
#include <vector>

#include "campaign/parallel_for.hh"
#include "photonics/inventory.hh"
#include "photonics/variation.hh"
#include "stats/report.hh"

int
main()
{
    using namespace corona;
    using photonics::VariationModel;
    using photonics::VariationParams;

    const photonics::Inventory inventory;
    const std::uint64_t rings = inventory.totalRings();
    // Monte-Carlo on a sample; scale power to the full population.
    const std::uint64_t sample = 100'000;

    stats::TableWriter table(
        "Ring fabrication variation sweep (" + std::to_string(rings) +
        " rings, 2 nm trim range)");
    table.setHeader({"sigma (nm)", "ring yield", "crossbar yield",
                     "mean trim (nm)", "trimming power (W)"});

    // Each sigma is an independent Monte-Carlo with its own fixed
    // seed, so the sweep runs concurrently on the campaign engine's
    // worker pool, rows printed in sweep order.
    constexpr double kSigmas[] = {0.1, 0.25, 0.5, 0.75, 1.0};
    constexpr std::size_t kCells = std::size(kSigmas);
    std::vector<photonics::VariationResult> results(kCells);
    campaign::parallelFor(kCells, /*threads=*/0,
                          [&](std::size_t i) {
                              VariationParams params;
                              params.sigma_nm = kSigmas[i];
                              const VariationModel model(params);
                              results[i] = model.analyze(sample, 42);
                          });

    for (std::size_t i = 0; i < kCells; ++i) {
        const double sigma = kSigmas[i];
        const auto &result = results[i];
        const double scale =
            static_cast<double>(rings) / static_cast<double>(sample);
        const double chip_yield =
            VariationModel::subsystemYield(result.yield, rings);
        table.addRow({
            stats::formatDouble(sigma, 2),
            stats::formatDouble(result.yield * 100.0, 3) + " %",
            chip_yield > 1e-4
                ? stats::formatDouble(chip_yield * 100.0, 1) + " %"
                : "~0 %",
            stats::formatDouble(result.mean_trim_nm, 3),
            stats::formatDouble(result.total_trimming_w * scale, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nPaper: \"It will be necessary to analyze and correct "
                 "for the inevitable\nfabrication variations to minimize "
                 "device failures and maximize yield.\"\nBeyond sigma "
                 "~0.5 nm the million-ring crossbar needs redundancy or "
                 "wider\ntrim range; trimming power scales with both "
                 "count and correction size.\n";
    return 0;
}
