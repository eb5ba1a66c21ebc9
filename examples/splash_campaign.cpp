/**
 * @file
 * Run one SPLASH-2 workload model across all five paper configurations
 * — the workflow behind Figures 8-11 for a single benchmark — as a
 * campaign with seed replicates: every (config, seed) cell executes
 * concurrently on the campaign engine, a SummarySink folds replicates
 * into mean ± 95 % CI per configuration, and speedups pair each seed's
 * run against the same seed's LMesh/ECM baseline.
 *
 * Usage: splash_campaign [benchmark] [requests] [replicates]
 *        (defaults: FFT, 15000, 3)
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "corona/simulation.hh"
#include "obs/registry.hh"
#include "stats/report.hh"
#include "stats/stats.hh"
#include "workload/splash.hh"

int
main(int argc, char **argv)
{
    using namespace corona;

    const std::string benchmark = argc > 1 ? argv[1] : "FFT";
    const auto parseArg = [](const char *text, const char *what) {
        const auto value = core::parsePositiveCount(text);
        if (!value) {
            std::cerr << "splash_campaign: " << what
                      << " must be a positive integer, got \"" << text
                      << "\"\nusage: splash_campaign [benchmark] "
                         "[requests] [replicates]\n";
            std::exit(1);
        }
        return *value;
    };
    const std::uint64_t requests =
        argc > 2 ? parseArg(argv[2], "requests") : 15'000;
    const std::uint64_t replicates =
        argc > 3 ? parseArg(argv[3], "replicates") : 3;

    const auto splash = workload::splashParams(benchmark);
    std::cout << "SPLASH-2 " << benchmark << " (" << splash.dataset
              << "), " << requests << " misses per run, " << replicates
              << " seed replicates\n"
              << "offered load: "
              << stats::formatBandwidth(
                     workload::SplashWorkload(splash)
                         .offeredBytesPerSecond())
              << (splash.burst.enabled ? ", bursty (barrier epochs)"
                                       : "")
              << "\n\n";

    campaign::CampaignSpec spec;
    spec.name = "splash-" + benchmark;
    spec.campaign_seed = 7;
    spec.workloads = {{benchmark, false, [benchmark] {
                           return workload::makeSplash(benchmark);
                       }}};
    spec.configs = core::paperConfigs();
    for (std::uint64_t salt = 0; salt < replicates; ++salt)
        spec.seeds.push_back(salt);
    spec.base.requests = requests;

    campaign::MemorySink memory;
    campaign::SummarySink summary;
    campaign::CampaignRunner runner;
    runner.addSink(memory);
    runner.addSink(summary);
    runner.run(spec);

    // Speedup pairs each seed's run with the same seed's LMesh/ECM
    // baseline (column 0), then averages the per-seed ratios.
    const std::size_t configs = spec.configs.size();
    const std::size_t seeds = spec.seeds.size();
    std::vector<stats::RunningStats> speedups(configs);
    const auto &records = memory.records();
    for (const campaign::RunRecord &record : records) {
        if (!record.ok)
            std::cerr << "run " << record.index
                      << " failed: " << record.error << "\n";
    }
    for (std::size_t s = 0; s < seeds; ++s) {
        if (!records[s].ok) {
            std::cerr << "baseline replicate " << s
                      << " failed; skipping its speedup pairings\n";
            continue;
        }
        const core::RunMetrics &baseline =
            records[0 * seeds + s].metrics; // Config 0, replicate s.
        for (std::size_t c = 0; c < configs; ++c) {
            const campaign::RunRecord &record = records[c * seeds + s];
            if (record.ok)
                speedups[c].sample(
                    record.metrics.speedupOver(baseline));
        }
    }

    stats::TableWriter table(benchmark + " across configurations (mean "
                                         "over " +
                             std::to_string(seeds) + " seeds)");
    table.setHeader({"config", "speedup", "bandwidth", "latency (ns)",
                     "lat 95% CI (ns)", "net power (W)"});
    for (const campaign::CellSummary &cell : summary.summaries()) {
        using campaign::SummaryMetric;
        const auto &latency = cell.metric(SummaryMetric::AvgLatencyNs);
        table.addRow({
            cell.config,
            stats::formatDouble(speedups[cell.config_index].mean(), 2),
            stats::formatBandwidth(
                cell.metric(SummaryMetric::AchievedBytesPerSecond)
                    .mean),
            stats::formatDouble(latency.mean, 1),
            "+/- " + stats::formatDouble(latency.ci95, 1),
            stats::formatDouble(
                cell.metric(SummaryMetric::NetworkPowerW).mean, 1),
        });
    }
    table.print(std::cout);

    // Busiest memory controllers at the Corona design point: one extra
    // run, reusing the seed that cell's first replicate actually ran
    // with, read through the same registry probes the observability
    // planes record.
    for (std::size_t c = 0; c < configs; ++c) {
        const auto &config = spec.configs[c];
        if (config.network != core::NetworkKind::XBar)
            continue;
        auto workload = workload::makeSplash(benchmark);
        core::SimParams params;
        params.requests = requests;
        params.seed = records[c * seeds].seed;
        core::NetworkSimulation sim(config, *workload, params);
        const core::RunMetrics metrics = sim.run();
        obs::Registry registry;
        sim.system().instrument(registry);
        std::map<std::string, double> probes;
        for (const obs::Probe &probe : registry.probes())
            probes.emplace(probe.path, probe.read());
        const auto probe = [&](const char *plane, std::size_t cluster,
                               const char *name) {
            return probes.at(std::string(plane) + "/" +
                             std::to_string(cluster) + "/" + name);
        };
        std::vector<std::size_t> busiest(config.clusters);
        std::iota(busiest.begin(), busiest.end(), std::size_t{0});
        std::stable_sort(busiest.begin(), busiest.end(),
                         [&](std::size_t a, std::size_t b) {
                             return probe("mc", a, "accesses") >
                                    probe("mc", b, "accesses");
                         });
        stats::TableWriter busy("Busiest memory controllers: " +
                                metrics.workload + " on " +
                                metrics.config);
        busy.setHeader({"cluster", "accesses", "service (ns)",
                        "peak queue", "MSHR stalls"});
        for (std::size_t i = 0; i < 4 && i < busiest.size(); ++i) {
            const std::size_t mc = busiest[i];
            busy.addRow(
                {std::to_string(mc),
                 obs::formatValue(probe("mc", mc, "accesses")),
                 stats::formatDouble(
                     probe("mc", mc, "service/mean") / 1000.0, 1),
                 obs::formatValue(probe("mc", mc, "peak_queue")),
                 obs::formatValue(probe("hub", mc, "mshr/full_stalls"))});
        }
        std::cout << "\n";
        busy.print(std::cout);
        break;
    }
    return 0;
}
