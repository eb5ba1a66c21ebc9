/**
 * @file
 * Golden grid: simulated bytes pinned against a recorded table.
 *
 * The parity tests elsewhere compare execution modes with each other
 * (pooled vs fresh, one shard vs several, observed vs not), so a change
 * that moves every mode the same way passes them all. This test runs
 * three grids and compares an FNV-1a digest of each cell's CSV row
 * (campaign::csvRow, every metric the sinks write) with the table in
 * tests/golden/grid.txt, one line per cell:
 *
 *  - paper: the scenarios/fig9.scenario grid (the 15 Table-3 workloads
 *    on the 5 paper configurations) at 2,000 requests, 400 warm-up;
 *  - coherent: the sharing/SPLASH workloads on the unicast and
 *    broadcast coherent XBar/OCM configs, at 2,000 requests, 250
 *    warm-up, with perfbench's observability planes on (time series,
 *    event trace, snapshot, rollup). Its CSV rows are digested like
 *    the others, and so is every file the planes write, one
 *    "coherent-obs" line per file: observing changes no CSV byte, and
 *    the obs bytes themselves are pinned;
 *  - xbar256: one 256-cluster XBar/OCM Uniform cell at 20,000
 *    requests, run at sim_threads 1, 2 and 4; each must give the one
 *    recorded line.
 *
 * A change that moves simulated bytes on purpose regenerates the table
 * in the same commit, and says which cells moved and why:
 *
 *     build/golden_test | sed -n 's/^golden: //p' > tests/golden/grid.txt
 *
 * The redirect empties the table before the test reads it, so the test
 * fails and prints every line of the replacement table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "test_dir.hh"

namespace {

using namespace corona;

constexpr const char *paperGrid = R"(
[scenario]
name = golden-paper
requests = 2000
warmup_requests = 400
seed_policy = fixed

[workloads]
workload = all

[configs]
config = paper
)";

constexpr const char *coherentGrid = R"(
[scenario]
name = golden-coherent
requests = 2000
warmup_requests = 250
seed_policy = fixed

[workloads]
workload = Migratory phase_length=2
workload = Producer-Consumer
workload = False Sharing lines=32
workload = Barnes
workload = Ocean

[configs]
config = XBar/OCM frontend=coherent inval_policy=unicast label=unicast
config = XBar/OCM frontend=coherent broadcast_threshold=2 label=broadcast
)";

constexpr const char *xbar256Cell = R"(
[scenario]
name = golden-xbar256
requests = 20000
seed_policy = fixed

[workloads]
workload = Uniform clusters=256

[configs]
config = XBar/OCM clusters=256
)";

/** FNV-1a of @p bytes as 16 hex digits. */
std::string
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char ch : bytes) {
        hash ^= ch;
        hash *= 1099511628211ull;
    }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(hash));
    return digest;
}

/** One table line per cell of @p scenario run at @p sim_threads:
 * "<grid> <run> <digest> <workload> on <config>". */
std::vector<std::string>
digestLines(const std::string &grid, campaign::ScenarioSpec scenario,
            unsigned sim_threads = 0)
{
    scenario.execution.sim_threads = sim_threads;
    const campaign::ScenarioRunResult result =
        campaign::runScenario(scenario, {.quiet = true});
    std::vector<std::string> lines;
    for (const campaign::RunRecord &record : result.records) {
        lines.push_back(grid + " " + std::to_string(record.index) + " " +
                        fnv1a(campaign::csvRow(record)) + " " +
                        record.workload + " on " + record.config);
    }
    return lines;
}

std::vector<std::string>
digestLines(const std::string &grid, const char *text,
            unsigned sim_threads = 0)
{
    return digestLines(grid, campaign::parseScenario(text), sim_threads);
}

/** The coherent grid with perfbench's observability planes on, writing
 * into @p dir. */
campaign::ScenarioSpec
observedCoherentGrid(const std::filesystem::path &dir)
{
    campaign::ScenarioSpec scenario = campaign::parseScenario(coherentGrid);
    scenario.observability.sample_period = 500000;
    scenario.observability.trace_capacity = 65536;
    scenario.observability.snapshot = true;
    scenario.observability.rollup = true;
    scenario.observability.dir = dir.string();
    return scenario;
}

/** One line per file in @p dir, in name order:
 * "coherent-obs <name> <digest>". */
std::vector<std::string>
obsDigestLines(const std::filesystem::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    std::vector<std::string> lines;
    for (const std::string &name : names) {
        std::ifstream in(dir / name, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        lines.push_back("coherent-obs " + name + " " + fnv1a(bytes));
    }
    return lines;
}

std::vector<std::string>
recordedTable()
{
    const auto path =
        std::filesystem::path(__FILE__).parent_path() / "golden" /
        "grid.txt";
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(GoldenGrid, EveryCellMatchesTheRecordedDigest)
{
    std::vector<std::string> table = digestLines("paper", paperGrid);
    const test::TestDir obs_dir;
    const std::vector<std::string> coherent =
        digestLines("coherent", observedCoherentGrid(obs_dir.path()));
    table.insert(table.end(), coherent.begin(), coherent.end());
    const std::vector<std::string> obs_lines =
        obsDigestLines(obs_dir.path());

    const std::vector<std::string> one_shard =
        digestLines("xbar256", xbar256Cell, 1);
    for (const unsigned sim_threads : {2u, 4u})
        EXPECT_EQ(one_shard, digestLines("xbar256", xbar256Cell,
                                         sim_threads))
            << "the sharded executor must not change a byte at "
            << sim_threads << " shards";
    table.insert(table.end(), one_shard.begin(), one_shard.end());
    table.insert(table.end(), obs_lines.begin(), obs_lines.end());

    // 10 coherent runs write a container and a snapshot each, and the
    // campaign writes one rollup.
    ASSERT_EQ(table.size(), 75u + 10u + 1u + 21u);
    const std::vector<std::string> recorded = recordedTable();
    if (recorded == table)
        return;
    std::size_t moved = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (i >= recorded.size() || recorded[i] != table[i]) {
            ++moved;
            ADD_FAILURE() << "cell moved\n  recorded: "
                          << (i < recorded.size() ? recorded[i] : "(none)")
                          << "\n  now:      " << table[i];
        }
    }
    EXPECT_EQ(recorded.size(), table.size());
    std::printf("%zu of %zu cells moved; the replacement table:\n", moved,
                table.size());
    for (const std::string &line : table)
        std::printf("golden: %s\n", line.c_str());
}

} // namespace
