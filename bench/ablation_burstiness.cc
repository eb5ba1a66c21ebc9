/**
 * @file
 * Ablation for Section 5's LU/Raytrace analysis: barrier-synchronized
 * bursts oversubscribe a mesh's links into the hot cluster even when
 * average bandwidth demand is modest; the crossbar's single-hop,
 * token-arbitrated channels absorb them. Sweeps burst size at constant
 * average offered load and compares HMesh/OCM vs XBar/OCM latency.
 *
 * The 4 burst sizes x 2 networks are one campaign (burst variants as
 * the workload axis), executed concurrently on the campaign engine.
 */

#include <iostream>
#include <memory>

#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "sim/logging.hh"
#include "stats/report.hh"
#include "workload/splash.hh"

int
main()
{
    using namespace corona;

    constexpr std::uint32_t kBursts[] = {1, 8, 24, 48};

    campaign::CampaignSpec spec;
    spec.name = "burstiness";
    std::vector<std::uint64_t> epochs_ns;
    for (const std::uint32_t burst : kBursts) {
        // Keep offered load fixed: epoch scales with burst size.
        auto base = workload::splashParams("LU");
        if (burst == 1) {
            base.burst.enabled = false;
        } else {
            base.burst.burst_size = burst;
            base.burst.epoch_length =
                burst * base.mean_think; // rate-preserving
        }
        epochs_ns.push_back(burst * base.mean_think);
        spec.workloads.push_back(campaign::WorkloadSpec{
            "burst=" + std::to_string(burst), false, [base] {
                return std::make_unique<workload::SplashWorkload>(base);
            }});
    }
    spec.configs = {
        core::makeConfig(core::NetworkKind::HMesh, core::MemoryKind::OCM),
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
    };
    spec.base.requests = 15'000;
    spec.seed_policy = campaign::SeedPolicy::Fixed;

    campaign::MemorySink sink;
    campaign::CampaignRunner runner;
    runner.addSink(sink);
    runner.run(spec);
    const auto grid = sink.grid();

    stats::TableWriter table(
        "Burstiness ablation (LU-derived model, constant offered load)");
    table.setHeader({"burst size", "epoch (ns)", "HMesh/OCM lat (ns)",
                     "XBar/OCM lat (ns)", "XBar advantage"});
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const double hmesh = grid[w][0].avg_latency_ns;
        const double xbar = grid[w][1].avg_latency_ns;
        table.addRow({
            std::to_string(kBursts[w]),
            stats::formatDouble(
                static_cast<double>(epochs_ns[w]) / 1000.0, 0),
            stats::formatDouble(hmesh, 0),
            stats::formatDouble(xbar, 0),
            stats::formatDouble(hmesh / xbar, 2) + "x",
        });
    }
    table.print(std::cout);

    std::cout << "\nPaper: \"many threads attempt to access the same "
                 "remotely stored matrix block\nat the same time, "
                 "following a barrier. In a mesh, this oversubscribes "
                 "the links\ninto the cluster that stores the requested "
                 "block.\"\n";
    return 0;
}
