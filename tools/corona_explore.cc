/**
 * @file
 * corona-explore: analytical design-space exploration.
 *
 * Enumerates a design grid (clusters x crossbar bundle width x DWDM
 * comb x token scheme x network x memory x memory channels x
 * workload), prunes analytically infeasible points via the photonic
 * loss/trim/power budgets, evaluates the survivors with the
 * closed-form performance model (optionally residual-calibrated
 * against the simulator), ranks by an objective, and emits the
 * Pareto frontier over (bandwidth, latency, network power) as CSV.
 * A >=10k-point grid evaluates in seconds; the event simulator is
 * reserved for confirmation: --confirm K writes the top-K frontier
 * points as scenario files, runs them over corona-run shard workers
 * (the corona-run beside this binary, through campaign::launchShards)
 * and prints model-vs-simulated deltas.
 *
 * Calibration workflow:
 *   corona-explore --calibrate factors.csv --anchor-requests 2000
 *       simulates the 15x5 paper grid of scenarios/fig9.scenario at
 *       2000 requests per cell, a fifth of them warm-up (checkpointed
 *       and resumable via --checkpoint), and writes residual factors;
 *   corona-explore --calibration factors.csv ...
 *       applies them to every prediction.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/launch.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/sink.hh"
#include "corona/knobs.hh"
#include "model/calibration.hh"
#include "model/design_space.hh"
#include "model/executor.hh"
#include "sim/logging.hh"
#include "stats/report.hh"

namespace {

using namespace corona;

struct CliOptions
{
    model::DesignSpace space;
    bool space_touched = false;

    std::string objective = "bandwidth";
    std::size_t top = 10;
    std::string pareto_csv;
    std::string grid_csv;

    std::string calibration_path; ///< Load factors from here.
    std::string calibrate_path;   ///< Fit + write factors here.
    std::uint64_t anchor_requests = 2000;
    std::string checkpoint_path;  ///< Anchor-simulation checkpoint.

    std::size_t sample = 0;
    std::uint64_t seed = 1;

    std::size_t confirm = 0; ///< Simulate top-K frontier points.
    std::uint64_t confirm_requests = 2000;
    std::size_t shards = 2;
    std::size_t jobs = 0;
    std::string confirm_dir = "corona-explore-confirm";

    bool quiet = false;
    std::string self;
};

void
usage(std::ostream &os)
{
    os << "corona-explore — analytical design-space exploration with "
          "Pareto frontier\nand simulator confirmation.\n\n"
          "Grid axes (comma-separated lists):\n"
          "  --clusters LIST      perfect squares (default "
          "16,64,144,256)\n"
          "  --guides LIST        waveguides per channel (default "
          "1,2,4,8)\n"
          "  --lambdas LIST       wavelengths per guide (default "
          "16,32,64,128)\n"
          "  --token LIST         channel,slot (default both)\n"
          "  --networks LIST      xbar,hmesh,lmesh (default all)\n"
          "  --memory LIST        ocm,ecm (default both)\n"
          "  --mem-channels LIST  per-controller channels (default "
          "1,2,4)\n"
          "  --workloads LIST     Table 3 names or \"all\" (default "
          "all)\n\n"
          "Evaluation:\n"
          "  --objective NAME     bandwidth|latency|power|"
          "bandwidth-per-watt\n"
          "  --top N              print the N best points (default "
          "10)\n"
          "  --pareto PATH        write the Pareto frontier CSV\n"
          "  --csv PATH           write every evaluated point\n"
          "  --sample N           deterministic ~N-point subsample\n"
          "  --seed S             sampling seed (default 1)\n\n"
          "Calibration:\n"
          "  --calibration PATH   apply residual factors\n"
          "  --calibrate PATH     simulate the paper anchor grid and "
          "write factors\n"
          "  --anchor-requests R  anchor requests per cell, R/5 of them "
          "warm-up\n"
          "                       (default 2000)\n"
          "  --checkpoint PATH    crash-tolerant anchor checkpoint\n\n"
          "Confirmation:\n"
          "  --confirm K          simulate the top-K frontier points "
          "on corona-run shard\n"
          "                       workers (the corona-run beside this "
          "binary)\n"
          "  --confirm-requests R simulated requests per point "
          "(default 2000)\n"
          "  --shards N --jobs M  launcher geometry (default 2, "
          "hardware)\n"
          "  --dir PATH           confirmation checkpoint dir\n"
          "  --quiet              suppress progress chatter\n";
}

[[noreturn]] void
badUsage(const std::string &message)
{
    std::cerr << "corona-explore: " << message << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            items.push_back(item);
    }
    if (items.empty())
        badUsage("empty list \"" + text + "\"");
    return items;
}

std::vector<std::size_t>
parseCountList(const std::string &text, const char *what)
{
    std::vector<std::size_t> values;
    for (const std::string &item : splitList(text)) {
        const auto value = core::parsePositiveCount(item);
        if (!value)
            badUsage(std::string(what) + ": \"" + item +
                     "\" is not a positive integer");
        values.push_back(static_cast<std::size_t>(*value));
    }
    return values;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    const auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            badUsage(std::string(flag) + " needs a value");
        return argv[++i];
    };
    const auto count = [&](int &i, const char *flag) {
        const std::string value = next(i, flag);
        const auto parsed = core::parsePositiveCount(value);
        if (!parsed)
            badUsage(std::string(flag) +
                     " must be a positive integer, got \"" + value +
                     "\"");
        return *parsed;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--clusters") {
            options.space.clusters =
                parseCountList(next(i, "--clusters"), "--clusters");
            options.space_touched = true;
        } else if (arg == "--guides") {
            options.space.channel_waveguides =
                parseCountList(next(i, "--guides"), "--guides");
            options.space_touched = true;
        } else if (arg == "--lambdas") {
            options.space.wavelengths_per_guide =
                parseCountList(next(i, "--lambdas"), "--lambdas");
            options.space_touched = true;
        } else if (arg == "--token") {
            options.space.token_schemes.clear();
            for (const std::string &item :
                 splitList(next(i, "--token"))) {
                if (item == "channel")
                    options.space.token_schemes.push_back(
                        model::TokenScheme::Channel);
                else if (item == "slot")
                    options.space.token_schemes.push_back(
                        model::TokenScheme::Slot);
                else
                    badUsage("--token values are channel|slot, got \"" +
                             item + "\"");
            }
            options.space_touched = true;
        } else if (arg == "--networks") {
            options.space.networks.clear();
            for (const std::string &item :
                 splitList(next(i, "--networks"))) {
                if (item == "xbar")
                    options.space.networks.push_back(
                        core::NetworkKind::XBar);
                else if (item == "hmesh")
                    options.space.networks.push_back(
                        core::NetworkKind::HMesh);
                else if (item == "lmesh")
                    options.space.networks.push_back(
                        core::NetworkKind::LMesh);
                else
                    badUsage("--networks values are xbar|hmesh|lmesh, "
                             "got \"" +
                             item + "\"");
            }
            options.space_touched = true;
        } else if (arg == "--memory") {
            options.space.memories.clear();
            for (const std::string &item :
                 splitList(next(i, "--memory"))) {
                if (item == "ocm")
                    options.space.memories.push_back(
                        core::MemoryKind::OCM);
                else if (item == "ecm")
                    options.space.memories.push_back(
                        core::MemoryKind::ECM);
                else
                    badUsage("--memory values are ocm|ecm, got \"" +
                             item + "\"");
            }
            options.space_touched = true;
        } else if (arg == "--mem-channels") {
            options.space.memory_channels = parseCountList(
                next(i, "--mem-channels"), "--mem-channels");
            options.space_touched = true;
        } else if (arg == "--workloads") {
            const std::string value = next(i, "--workloads");
            options.space.workloads =
                value == "all" ? model::knownWorkloads()
                               : splitList(value);
            options.space_touched = true;
        } else if (arg == "--objective") {
            options.objective = next(i, "--objective");
        } else if (arg == "--top") {
            options.top = count(i, "--top");
        } else if (arg == "--pareto") {
            options.pareto_csv = next(i, "--pareto");
        } else if (arg == "--csv") {
            options.grid_csv = next(i, "--csv");
        } else if (arg == "--calibration") {
            options.calibration_path = next(i, "--calibration");
        } else if (arg == "--calibrate") {
            options.calibrate_path = next(i, "--calibrate");
        } else if (arg == "--anchor-requests") {
            options.anchor_requests = count(i, "--anchor-requests");
        } else if (arg == "--checkpoint") {
            options.checkpoint_path = next(i, "--checkpoint");
        } else if (arg == "--sample") {
            options.sample = count(i, "--sample");
        } else if (arg == "--seed") {
            options.seed = count(i, "--seed");
        } else if (arg == "--confirm") {
            options.confirm = count(i, "--confirm");
        } else if (arg == "--confirm-requests") {
            options.confirm_requests = count(i, "--confirm-requests");
        } else if (arg == "--shards") {
            options.shards = count(i, "--shards");
        } else if (arg == "--jobs") {
            options.jobs = count(i, "--jobs");
        } else if (arg == "--dir") {
            options.confirm_dir = next(i, "--dir");
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            badUsage("unknown argument \"" + arg + "\"");
        }
    }
    return options;
}

/** Default exploration grid: >=10k points around the paper's design
 * (64 clusters, 4 guides x 64 lambdas, channel token, OCM). */
void
applyDefaultSpace(model::DesignSpace &space)
{
    space.clusters = {16, 64, 144, 256};
    space.channel_waveguides = {1, 2, 4, 8};
    space.wavelengths_per_guide = {16, 32, 64, 128};
    space.token_schemes = {model::TokenScheme::Channel,
                           model::TokenScheme::Slot};
    space.networks = {core::NetworkKind::XBar,
                      core::NetworkKind::HMesh,
                      core::NetworkKind::LMesh};
    space.memories = {core::MemoryKind::OCM, core::MemoryKind::ECM};
    space.memory_channels = {1, 2, 4};
    space.workloads = model::knownWorkloads();
}

// ------------------------------------------------------- CSV schema

const char *pointCsvHeader =
    "workload,network,memory,clusters,waveguides,wavelengths,token,"
    "mem_channels,feasible,infeasible_reason,"
    "offered_bytes_per_second,achieved_bytes_per_second,"
    "avg_latency_ns,p95_latency_ns,network_power_w,token_wait_ns,"
    "photonic_power_w,laser_power_w,trimming_power_w,ring_yield,"
    "path_loss_db";

std::string
pointCsvRow(const model::EvaluatedPoint &e)
{
    const model::DesignPoint &d = e.point;
    const model::Prediction &p = e.prediction;
    const model::Feasibility &f = e.feasibility;
    std::ostringstream os;
    os << campaign::csvEscape(d.workload) << ","
       << core::to_string(d.network) << ","
       << core::to_string(d.memory) << "," << d.clusters << ","
       << d.channel_waveguides << "," << d.wavelengths_per_guide
       << "," << model::to_string(d.token_scheme) << ","
       << d.memory_channels << "," << (f.feasible ? 1 : 0) << ","
       << campaign::csvEscape(f.reason) << ","
       << campaign::formatShortestDouble(p.offered_bytes_per_second)
       << ","
       << campaign::formatShortestDouble(p.achieved_bytes_per_second)
       << "," << campaign::formatShortestDouble(p.avg_latency_ns)
       << "," << campaign::formatShortestDouble(p.p95_latency_ns)
       << "," << campaign::formatShortestDouble(p.network_power_w)
       << "," << campaign::formatShortestDouble(p.token_wait_ns)
       << "," << campaign::formatShortestDouble(f.photonic_power_w)
       << "," << campaign::formatShortestDouble(f.laser_power_w)
       << "," << campaign::formatShortestDouble(f.trimming_power_w)
       << "," << campaign::formatShortestDouble(f.ring_yield) << ","
       << campaign::formatShortestDouble(f.path_loss_db);
    return os.str();
}

// -------------------------------------------------- confirm plumbing

/** The confirmation campaign for one (workload, cluster-count) group
 * of frontier points as a serializable scenario: a 1 x N grid, one
 * config expression per design point (configKnobExpression inverts
 * model::toConfig, label included). The primary persists this file
 * and launcher workers resolve the identical spec from it. */
campaign::ScenarioSpec
confirmScenario(const std::vector<model::DesignPoint> &group,
                std::uint64_t requests)
{
    campaign::ScenarioSpec scenario;
    scenario.name = "explore-confirm " + group.front().workload +
                    " c" + std::to_string(group.front().clusters);
    std::string workload = group.front().workload;
    if (group.front().clusters != 64)
        workload +=
            " clusters=" + std::to_string(group.front().clusters);
    scenario.workloads = {workload};
    for (const model::DesignPoint &point : group)
        scenario.configs.push_back(
            core::configKnobExpression(model::toConfig(point)));
    scenario.requests = requests;
    scenario.warmup_requests = requests / 5;
    scenario.seed_policy = campaign::SeedPolicy::Fixed;
    return scenario;
}

/** Group frontier points by (workload, clusters), preserving order.
 * Each group becomes one launcher campaign. */
std::vector<std::vector<model::DesignPoint>>
groupFrontier(const std::vector<model::DesignPoint> &points)
{
    std::vector<std::vector<model::DesignPoint>> groups;
    std::map<std::string, std::size_t> index;
    for (const model::DesignPoint &point : points) {
        const std::string key =
            point.workload + "|" + std::to_string(point.clusters);
        const auto it = index.find(key);
        if (it == index.end()) {
            index.emplace(key, groups.size());
            groups.push_back({point});
        } else {
            groups[it->second].push_back(point);
        }
    }
    return groups;
}

/** Simulate the frontier's top-K points via launchShards and print
 * predicted-vs-simulated per point. Returns false when any shard
 * group failed. */
bool
confirmFrontier(const CliOptions &options,
                const std::vector<model::EvaluatedPoint> &points,
                const std::vector<std::size_t> &frontier)
{
    std::vector<model::DesignPoint> selected;
    std::map<std::string, const model::EvaluatedPoint *> predictions;
    for (const std::size_t index : frontier) {
        if (selected.size() >= options.confirm)
            break;
        selected.push_back(points[index].point);
        predictions[points[index].point.label() + "|" +
                    points[index].point.workload] = &points[index];
    }
    if (selected.empty()) {
        std::cerr << "corona-explore: nothing to confirm (empty "
                     "frontier)\n";
        return true;
    }

    stats::TableWriter table("Frontier confirmation: model vs. "
                             "simulator");
    table.setHeader({"point", "workload", "model TB/s", "sim TB/s",
                     "ratio", "model ns", "sim ns", "ratio"});

    bool all_ok = true;
    std::size_t group_number = 0;
    for (const auto &group : groupFrontier(selected)) {
        ++group_number;
        // Persist this group's campaign as a scenario file: the
        // worker processes resolve the identical spec (same axis
        // labels, same fingerprint) from the path alone.
        const campaign::ScenarioSpec scenario =
            confirmScenario(group, options.confirm_requests);
        const campaign::CampaignSpec spec = scenario.resolve();
        const std::string scenario_path =
            (std::filesystem::path(options.confirm_dir) /
             ("confirm" + std::to_string(group_number) + ".scenario"))
                .string();
        {
            std::ofstream out(scenario_path, std::ios::trunc);
            out << campaign::serializeScenario(scenario);
            out.flush();
            if (!out)
                sim::fatal("corona-explore: cannot write scenario "
                           "\"" +
                           scenario_path + "\"");
        }

        campaign::LaunchOptions launch;
        launch.shard_count =
            std::min(options.shards, spec.totalRuns());
        launch.max_parallel = options.jobs;
        launch.checkpoint_dir = options.confirm_dir;
        launch.checkpoint_prefix =
            "confirm" + std::to_string(group_number) + "-shard";
        if (!options.quiet)
            launch.log = &std::cerr;
        launch.command = campaign::localWorkerCommand(
            options.self, scenario_path, /*quiet=*/true);

        const campaign::LaunchReport report =
            campaign::launchShards(launch);
        if (!report.allOk()) {
            std::cerr << "corona-explore: confirmation group \""
                      << scenario.name << "\" had poisoned shards\n";
            all_ok = false;
        }
        const auto merged_records = campaign::mergeCheckpointFiles(
            report.checkpointPaths(), spec);

        for (const auto &record : merged_records) {
            if (!record.ok)
                continue;
            // The scenario's workload axis label may carry a
            // clusters knob; predictions are keyed by the bare
            // workload name, which is constant within a group.
            const auto it = predictions.find(
                record.config + "|" + group.front().workload);
            if (it == predictions.end())
                continue;
            const model::Prediction &p = it->second->prediction;
            const auto ratio = [](double a, double b) {
                return b > 0.0 ? a / b : 0.0;
            };
            table.addRow(
                {record.config, record.workload,
                 stats::formatDouble(
                     p.achieved_bytes_per_second / 1e12, 3),
                 stats::formatDouble(
                     record.metrics.achieved_bytes_per_second / 1e12,
                     3),
                 stats::formatDouble(
                     ratio(p.achieved_bytes_per_second,
                           record.metrics.achieved_bytes_per_second),
                     2),
                 stats::formatDouble(p.avg_latency_ns, 1),
                 stats::formatDouble(record.metrics.avg_latency_ns,
                                     1),
                 stats::formatDouble(
                     ratio(p.avg_latency_ns,
                           record.metrics.avg_latency_ns),
                     2)});
        }
    }
    table.print(std::cout);
    return all_ok;
}

int
exploreMain(const CliOptions &cli)
{
    CliOptions options = cli;
    if (!options.space_touched)
        applyDefaultSpace(options.space);

    const auto objective = model::parseObjective(options.objective);
    if (!objective)
        badUsage("unknown objective \"" + options.objective + "\"");

    model::Calibration calibration;
    if (!options.calibrate_path.empty()) {
        // Simulated anchor grid: fig9.scenario's 15 x 5 paper grid
        // and seeding at anchor fidelity, a fifth of it warm-up,
        // checkpointed so an interrupted pass resumes.
        std::cerr << "corona-explore: simulating the paper anchor "
                     "grid at "
                  << options.anchor_requests << " requests/cell...\n";
        campaign::ScenarioSpec anchor;
        anchor.name = "paper-sweep";
        anchor.workloads = {"all"};
        anchor.configs = {"paper"};
        anchor.requests = options.anchor_requests;
        anchor.warmup_requests = options.anchor_requests / 5;
        anchor.seed_policy = campaign::SeedPolicy::Fixed;
        model::CalibrateOptions calibrate_options;
        calibrate_options.checkpoint_path = options.checkpoint_path;
        if (!options.quiet)
            calibrate_options.log = &std::cerr;
        calibration = model::calibrateFromAnchor(anchor.resolve(),
                                                 calibrate_options);
        std::ofstream out(options.calibrate_path, std::ios::trunc);
        calibration.save(out);
        out.flush();
        if (!out)
            sim::fatal("corona-explore: cannot write calibration \"" +
                       options.calibrate_path + "\"");
        std::cerr << "corona-explore: wrote "
                  << calibration.keys().size()
                  << " calibration cells to "
                  << options.calibrate_path << "\n";
    } else if (!options.calibration_path.empty()) {
        std::ifstream in(options.calibration_path);
        if (!in)
            sim::fatal("corona-explore: cannot read calibration \"" +
                       options.calibration_path + "\"");
        calibration = model::Calibration::load(in);
    }

    model::ExploreOptions explore_options;
    explore_options.space = options.space;
    explore_options.calibration = calibration;
    explore_options.sample = options.sample;
    explore_options.seed = options.seed;

    std::cerr << "corona-explore: grid of "
              << options.space.size() << " design points";
    if (options.sample > 0)
        std::cerr << " (sampling ~" << options.sample << ")";
    std::cerr << "\n";

    const model::ExploreResult result =
        model::explore(explore_options);
    const std::vector<std::size_t> frontier =
        model::paretoFrontier(result.points);
    const std::vector<std::size_t> ranked =
        model::rankByObjective(result.points, *objective);

    std::cerr << "corona-explore: evaluated " << result.enumerated
              << " points, " << result.feasible << " feasible, "
              << frontier.size() << " on the Pareto frontier\n";

    if (!options.grid_csv.empty()) {
        std::ofstream out(options.grid_csv, std::ios::trunc);
        out << pointCsvHeader << "\n";
        for (const auto &point : result.points)
            out << pointCsvRow(point) << "\n";
        out.flush();
        if (!out)
            sim::fatal("corona-explore: cannot write grid CSV \"" +
                       options.grid_csv + "\"");
        std::cerr << "corona-explore: wrote grid CSV "
                  << options.grid_csv << "\n";
    }

    const std::string &frontier_csv = options.pareto_csv;
    if (!frontier_csv.empty()) {
        std::filesystem::path parent =
            std::filesystem::path(frontier_csv).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
        }
        std::ofstream out(frontier_csv, std::ios::trunc);
        out << pointCsvHeader << "\n";
        for (const std::size_t index : frontier)
            out << pointCsvRow(result.points[index]) << "\n";
        out.flush();
        if (!out)
            sim::fatal("corona-explore: cannot write Pareto CSV \"" +
                       frontier_csv + "\"");
        std::cerr << "corona-explore: wrote Pareto frontier ("
                  << frontier.size() << " points) to " << frontier_csv
                  << "\n";
    }

    // Top-N by objective.
    stats::TableWriter table(
        "Top " +
        std::to_string(std::min(options.top, ranked.size())) +
        " by " + model::to_string(*objective));
    table.setHeader({"point", "workload", "TB/s", "ns", "W",
                     "TB/s/W"});
    for (std::size_t i = 0;
         i < ranked.size() && i < options.top; ++i) {
        const model::EvaluatedPoint &e = result.points[ranked[i]];
        const double tbps =
            e.prediction.achieved_bytes_per_second / 1e12;
        table.addRow(
            {e.point.label(), e.point.workload,
             stats::formatDouble(tbps, 3),
             stats::formatDouble(e.prediction.avg_latency_ns, 1),
             stats::formatDouble(e.prediction.network_power_w, 1),
             stats::formatDouble(
                 e.prediction.network_power_w > 0.0
                     ? tbps / e.prediction.network_power_w
                     : 0.0,
                 4)});
    }
    table.print(std::cout);

    if (options.confirm > 0) {
        std::error_code ec;
        std::filesystem::create_directories(options.confirm_dir, ec);
        if (!confirmFrontier(options, result.points, frontier))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = parseArgs(argc, argv);
    options.self = argv[0];
    try {
        return exploreMain(options);
    } catch (const std::exception &e) {
        std::cerr << "corona-explore: " << e.what() << "\n";
        return 1;
    }
}
