/**
 * @file
 * corona-run: execute a scenario file.
 *
 * The unified front end for declaratively described experiments: a
 * scenario file names the workload / configuration / override axes
 * (resolved through the workload and config registries), the seeding
 * discipline, and the execution settings (threads, sim_threads,
 * checkpoint, sinks), so the same text file produces byte-identical
 * sink and checkpoint output on any host and at any worker count.
 *
 * The file is the whole description of the run. The one environment
 * variable is CORONA_JOBS, the worker count that threads = 0 resolves
 * to.
 *
 * The paper's Figures 8-11 come from one run of
 * scenarios/fig9.scenario: `corona-stats figures` renders them from
 * its CSV sink.
 */

#include <iostream>
#include <string>

#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "stats/report.hh"
#include "stats/stats.hh"

namespace {

using namespace corona;

void
usage(std::ostream &os)
{
    os << "corona-run — execute a scenario file.\n\n"
          "usage: corona-run <scenario-file> [options]\n\n"
          "  --print     parse the scenario and print its canonical\n"
          "              serialised form without running it\n"
          "  --dry-run   resolve the scenario and print the expanded\n"
          "              grid summary without running it\n"
          "  --no-table  skip the per-run results table on stdout\n"
          "  --quiet     suppress progress/ETA chatter on stderr\n\n"
          "The scenario file describes the whole run. Environment:\n"
          "CORONA_JOBS is the worker count for threads = 0.\n\n"
          "Figures 8-11: corona-run scenarios/fig9.scenario, then\n"
          "`corona-stats figures fig9.csv`.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool print = false;
    bool dry_run = false;
    bool table = true;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print") {
            print = true;
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--no-table") {
            table = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            std::cerr << "corona-run: unknown argument \"" << arg
                      << "\"\n\n";
            usage(std::cerr);
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "corona-run: more than one scenario file "
                         "given (\""
                      << path << "\", \"" << arg << "\")\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "corona-run: no scenario file given\n\n";
        usage(std::cerr);
        return 2;
    }

    try {
        const campaign::ScenarioSpec scenario =
            campaign::loadScenarioFile(path);

        if (print) {
            std::cout << campaign::serializeScenario(scenario);
            return 0;
        }
        if (dry_run) {
            const campaign::CampaignSpec spec = scenario.resolve();
            std::cout << "scenario \"" << scenario.name << "\": "
                      << spec.workloads.size() << " workload(s) x "
                      << spec.configs.size() << " config(s) x "
                      << (spec.seeds.empty() ? 1 : spec.seeds.size())
                      << " seed(s) x "
                      << (spec.overrides.empty()
                              ? 1
                              : spec.overrides.size())
                      << " override(s) = " << spec.totalRuns()
                      << " runs at " << scenario.requests
                      << " requests\n";
            return 0;
        }

        campaign::ScenarioRunOptions options;
        options.quiet = quiet;
        const campaign::ScenarioRunResult result =
            campaign::runScenario(scenario, options);

        bool failed = false;
        for (const auto &record : result.records) {
            if (!record.ok) {
                failed = true;
                std::cerr << "corona-run: run " << record.index
                          << " (" << record.workload << " on "
                          << record.config
                          << ") failed: " << record.error << "\n";
            }
        }

        if (table) {
            stats::TableWriter out("Scenario \"" + scenario.name +
                                   "\": " +
                                   std::to_string(
                                       result.records.size()) +
                                   " runs");
            out.setHeader({"workload", "config", "override", "seed",
                           "TB/s", "avg ns"});
            for (const auto &record : result.records) {
                out.addRow(
                    {record.workload, record.config,
                     record.override_label,
                     std::to_string(record.seed),
                     stats::formatDouble(
                         record.metrics.achieved_bytes_per_second /
                             1e12,
                         3),
                     stats::formatDouble(record.metrics.avg_latency_ns,
                                         1)});
            }
            out.print(std::cout);
        }
        return failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "corona-run: " << e.what() << "\n";
        return 1;
    }
}
