/**
 * @file
 * Tests for the CSV reader and the Figure 8-11 renderer: exact table
 * text for a grid with chosen metrics, order independence, a bit-exact
 * round trip of a simulated paper grid through the CSV sink, and a
 * located FatalError for every malformed or incomplete input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/figures.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/sink.hh"
#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace {

using namespace corona;

/**
 * The paper grid with chosen metrics, in registry x paper order.
 * Elapsed ticks give speedups 1.00/1.20/1.50/2.00 on the first four
 * configs; XBar/OCM is 4x or 16x (alternating) on the synthetics and
 * 3x on SPLASH-2. Workload ordinal w offers (w + 1) * 0.1 TB/s on
 * LMesh/ECM, has an XBar p95 of 100 + w ns, and burns 10 w + c W on
 * mesh config c; the crossbar burns 500 W so it cannot pass for the
 * worst mesh.
 */
std::vector<campaign::RunRecord>
chosenGrid()
{
    const std::vector<std::string> &configs = core::paperConfigNames();
    const sim::Tick mesh_elapsed[] = {1200, 1000, 800, 600};
    std::vector<campaign::RunRecord> rows;
    std::size_t w = 0;
    std::size_t synthetic = 0;
    for (const workload::RegistryEntry &entry : workload::registry()) {
        if (entry.sharing)
            continue;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            campaign::RunRecord row;
            row.index = rows.size();
            row.workload = entry.name;
            row.config = configs[c];
            row.seed = 1;
            core::RunMetrics &m = row.metrics;
            m.requests_issued = 1000;
            const bool xbar = configs[c] == "XBar/OCM";
            if (!xbar)
                m.elapsed = mesh_elapsed[c];
            else if (!entry.synthetic)
                m.elapsed = 400;
            else
                m.elapsed = synthetic % 2 == 0 ? 300 : 75;
            m.offered_bytes_per_second =
                configs[c] == "LMesh/ECM"
                    ? static_cast<double>(w + 1) * 1e11
                    : 9e12;
            m.p95_latency_ns =
                xbar ? 100.0 + static_cast<double>(w) : 999.0;
            m.network_power_w =
                xbar ? 500.0 : 10.0 * static_cast<double>(w) +
                                   static_cast<double>(c);
            rows.push_back(row);
        }
        synthetic += entry.synthetic ? 1 : 0;
        ++w;
    }
    return rows;
}

std::string
render(const std::vector<campaign::RunRecord> &rows)
{
    std::ostringstream os;
    campaign::writePaperFigures(os, rows, "runs.csv");
    return os.str();
}

/** The whitespace-separated cells of @p workload's row in the table
 * titled @p title. */
std::vector<std::string>
tableRow(const std::string &text, const std::string &title,
         const std::string &workload)
{
    const std::size_t table = text.find("== " + title + " ==");
    EXPECT_NE(table, std::string::npos) << title;
    const std::size_t at = text.find("\n" + workload + " ", table);
    EXPECT_NE(at, std::string::npos) << workload;
    std::istringstream line(
        text.substr(at + 1, text.find('\n', at + 1) - at - 1));
    std::vector<std::string> cells;
    for (std::string cell; line >> cell;)
        cells.push_back(cell);
    return cells;
}

using Cells = std::vector<std::string>;

TEST(PaperFigures, RendersTheChosenMetricsExactly)
{
    const std::string text = render(chosenGrid());

    const std::string fig8 = "Figure 8: Normalized Speedup (vs LMesh/ECM)";
    EXPECT_EQ(tableRow(text, fig8, "Uniform"),
              (Cells{"Uniform", "1.00", "1.20", "1.50", "2.00", "4.00"}));
    EXPECT_EQ(tableRow(text, fig8, "Tornado"),
              (Cells{"Tornado", "1.00", "1.20", "1.50", "2.00", "4.00"}));
    EXPECT_EQ(tableRow(text, fig8, "Transpose"),
              (Cells{"Transpose", "1.00", "1.20", "1.50", "2.00",
                     "16.00"}));
    EXPECT_EQ(tableRow(text, fig8, "FFT"),
              (Cells{"FFT", "1.00", "1.20", "1.50", "2.00", "3.00"}));
    // OCM over ECM is 2.00 / 1.20 everywhere; the crossbar's gain over
    // HMesh/OCM is 2x or 8x on the synthetics (geomean 4x), 1.5x on
    // SPLASH-2.
    EXPECT_NE(text.find("\n  synthetic: OCM over ECM (HMesh) 1.67x "
                        "(3.28x); crossbar over HMesh/OCM 4.00x "
                        "(2.36x)\n"),
              std::string::npos);
    EXPECT_NE(text.find("\n  SPLASH-2:  OCM over ECM (HMesh) 1.67x "
                        "(1.80x); crossbar over HMesh/OCM 1.50x "
                        "(1.44x)\n"),
              std::string::npos);

    // Barnes is workload ordinal 4.
    EXPECT_EQ(tableRow(text, "Figure 9: Achieved Bandwidth (TB/s)",
                       "Barnes")
                  .back(),
              "0.50");
    EXPECT_EQ(tableRow(text, "Figure 10: Average L2 Miss Latency (ns)",
                       "Barnes")
                  .back(),
              "104");
    EXPECT_EQ(tableRow(text, "Figure 11: On-chip Network Power (W)",
                       "Barnes"),
              (Cells{"Barnes", "40.0", "41.0", "42.0", "43.0", "500.0"}));
    // Water-Sp (ordinal 14) on HMesh/OCM (column 3).
    EXPECT_NE(text.find("(worst mesh point here: 143.0 W).\n"),
              std::string::npos);

    // Figure order, each table once.
    std::size_t at = 0;
    for (const char *title :
         {"Figure 8:", "Figure 9:", "Figure 10:", "Figure 11:"}) {
        const std::size_t next = text.find(std::string("== ") + title);
        ASSERT_NE(next, std::string::npos) << title;
        EXPECT_GE(next, at) << title;
        at = next;
    }
}

TEST(PaperFigures, RowsPrintInRegistryOrderWhateverTheFileOrder)
{
    const std::vector<campaign::RunRecord> rows = chosenGrid();
    std::vector<campaign::RunRecord> shuffled = rows;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
    ASSERT_NE(shuffled.front().index, rows.front().index);
    const std::string text = render(rows);
    EXPECT_EQ(render(shuffled), text);

    // Figure 8 comes first, so the first hit of each row is its own.
    std::size_t at = 0;
    for (const workload::RegistryEntry &entry : workload::registry()) {
        if (entry.sharing)
            continue;
        const std::size_t row = text.find("\n" + entry.name + " ");
        ASSERT_NE(row, std::string::npos) << entry.name;
        EXPECT_GT(row, at) << entry.name;
        at = row;
    }
}

TEST(PaperFigures, SimulatedGridRoundTripsThroughTheCsv)
{
    campaign::ScenarioSpec scenario;
    scenario.name = "paper-sweep";
    scenario.workloads = {"all"};
    scenario.configs = {"paper"};
    scenario.requests = 500;
    scenario.warmup_requests = 100;
    scenario.seed_policy = campaign::SeedPolicy::Fixed;

    std::ostringstream csv;
    campaign::CsvSink csv_sink(csv);
    campaign::CampaignRunner runner;
    runner.addSink(csv_sink);
    const std::vector<campaign::RunRecord> records =
        runner.run(scenario.resolve());

    std::istringstream in(csv.str());
    const std::vector<campaign::RunRecord> parsed =
        campaign::readRunsCsv(in, "runs.csv");
    ASSERT_EQ(parsed.size(), 75u);
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(campaign::csvRow(parsed[i]), campaign::csvRow(records[i]));
    EXPECT_EQ(render(parsed), render(records));
}

// ---------------------------------------------------------------------
// Malformed and incomplete inputs.

std::string
csvText(const std::vector<campaign::RunRecord> &rows)
{
    std::string text = std::string(campaign::CsvSink::header()) + "\n";
    for (const campaign::RunRecord &row : rows)
        text += campaign::csvRow(row) + "\n";
    return text;
}

/** The FatalError message reading and rendering @p text throws ("" if
 * it renders). */
std::string
figuresError(const std::string &text)
{
    try {
        std::istringstream in(text);
        render(campaign::readRunsCsv(in, "runs.csv"));
    } catch (const sim::FatalError &err) {
        return err.what();
    }
    return "";
}

/** csvText(rows) with the row on @p line replaced by @p replacement. */
std::string
withLine(const std::vector<campaign::RunRecord> &rows, std::size_t line,
         const std::string &replacement)
{
    std::vector<std::string> lines = {campaign::CsvSink::header()};
    for (const campaign::RunRecord &row : rows)
        lines.push_back(campaign::csvRow(row));
    lines.at(line - 1) = replacement;
    std::string text;
    for (const std::string &each : lines)
        text += each + "\n";
    return text;
}

TEST(PaperFigures, TheChosenGridRendersWithoutError)
{
    EXPECT_EQ(figuresError(csvText(chosenGrid())), "");
}

TEST(PaperFigures, MalformedCsvIsFatalAtItsLine)
{
    const std::vector<campaign::RunRecord> rows = chosenGrid();

    EXPECT_EQ(figuresError(withLine(rows, 1, "run,workload,config")),
              std::string("fatal: runs.csv:1: expected the CSV sink "
                          "header \"") +
                  campaign::CsvSink::header() + "\"");

    // 18 fields: the row loses its peak_mc_queue column.
    const std::string row = campaign::csvRow(rows[3]);
    EXPECT_EQ(figuresError(withLine(rows, 5, row.substr(0, row.rfind(',')))),
              "fatal: runs.csv:5: malformed run row");

    auto fields = *campaign::splitCsvRow(campaign::csvRow(rows[5]));
    fields[9] = "12x"; // elapsed_ticks
    std::string joined;
    for (const std::string &field : fields)
        joined += (joined.empty() ? "" : ",") + field;
    EXPECT_EQ(figuresError(withLine(rows, 7, joined)),
              "fatal: runs.csv:7: malformed run row");

    std::string torn = csvText(rows);
    torn.resize(torn.size() - 5); // Cut mid-row, newline and all.
    EXPECT_EQ(figuresError(torn),
              "fatal: runs.csv:76: row is not newline-terminated (torn "
              "file?)");
}

TEST(PaperFigures, BadCellsAreFatalNamingLineAndCell)
{
    const std::vector<campaign::RunRecord> rows = chosenGrid();
    const auto mutated = [&](auto &&edit) {
        std::vector<campaign::RunRecord> copy = rows;
        edit(copy);
        return figuresError(csvText(copy));
    };

    EXPECT_EQ(mutated([](auto &r) { r[10].metrics.elapsed = 0; }),
              "fatal: runs.csv:12: cell Tornado on LMesh/ECM has "
              "elapsed_ticks 0");
    EXPECT_EQ(mutated([](auto &r) {
                  r[21].ok = false;
                  r[21].error = "boom";
              }),
              "fatal: runs.csv:23: cell Barnes on HMesh/ECM failed: boom");
    EXPECT_EQ(mutated([](auto &r) { r.pop_back(); }),
              "fatal: runs.csv: missing cell Water-Sp on XBar/OCM");
    EXPECT_EQ(mutated([](auto &r) { r.push_back(r[0]); }),
              "fatal: runs.csv:77: duplicate cell Uniform on LMesh/ECM "
              "(first at line 2)");
    EXPECT_EQ(mutated([](auto &r) {
                  r.push_back(r[0]);
                  r.back().config = "Ideal/OCM";
              }),
              "fatal: runs.csv:77: extra cell Uniform on Ideal/OCM is not "
              "in the paper grid");
    EXPECT_EQ(mutated([](auto &r) {
                  r.push_back(r[0]);
                  r.back().workload = "Migratory";
              }),
              "fatal: runs.csv:77: extra cell Migratory on LMesh/ECM is "
              "not in the paper grid");
    EXPECT_EQ(mutated([](auto &r) { r[5].workload = "Bogus"; }),
              "fatal: runs.csv:7: \"Bogus\" is not a registry workload");
    EXPECT_EQ(mutated([](auto &r) { r[6].metrics.requests_issued = 999; }),
              "fatal: runs.csv:8: cell Hot Spot on HMesh/ECM issued 999 "
              "requests, but LMesh/ECM (line 7) issued 1000");
}

} // namespace
