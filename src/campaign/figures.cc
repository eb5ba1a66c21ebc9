#include "campaign/figures.hh"

#include <algorithm>
#include <ostream>

#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "stats/report.hh"
#include "stats/stats.hh"
#include "workload/registry.hh"

namespace corona::campaign {

namespace {

/** The paper grid's cells, [workload][config] in registry and paper
 * order, each pointing into the caller's rows. */
struct PaperGrid
{
    std::vector<const workload::RegistryEntry *> workloads;
    std::vector<std::string> configs;
    std::vector<std::vector<const core::RunMetrics *>> cells;

    /** Column of the paper config @p name. */
    std::size_t column(const std::string &name) const
    {
        const auto it = std::find(configs.begin(), configs.end(), name);
        if (it == configs.end())
            sim::panic("paper figures: no \"" + name + "\" column");
        return static_cast<std::size_t>(it - configs.begin());
    }
};

PaperGrid
collectGrid(const std::vector<RunRecord> &rows, const std::string &what)
{
    PaperGrid grid;
    for (const workload::RegistryEntry &entry : workload::registry()) {
        if (!entry.sharing)
            grid.workloads.push_back(&entry);
    }
    grid.configs = core::paperConfigNames();
    grid.cells.assign(grid.workloads.size(),
                      std::vector<const core::RunMetrics *>(
                          grid.configs.size(), nullptr));
    std::vector<std::vector<std::size_t>> lines(
        grid.workloads.size(),
        std::vector<std::size_t>(grid.configs.size(), 0));

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunRecord &row = rows[i];
        const std::size_t line = i + 2;
        const std::string where = what + ":" + std::to_string(line) + ": ";
        const std::string cell = row.workload + " on " + row.config;
        const auto known = std::find_if(
            workload::registry().begin(), workload::registry().end(),
            [&](const workload::RegistryEntry &entry) {
                return entry.name == row.workload;
            });
        if (known == workload::registry().end())
            sim::fatal(where + "\"" + row.workload +
                       "\" is not a registry workload");
        const auto w = std::find(grid.workloads.begin(),
                                 grid.workloads.end(), &*known);
        const auto c = std::find(grid.configs.begin(),
                                 grid.configs.end(), row.config);
        if (w == grid.workloads.end() || c == grid.configs.end() ||
            !row.override_label.empty())
            sim::fatal(where + "extra cell " + cell +
                       (row.override_label.empty()
                            ? ""
                            : " [" + row.override_label + "]") +
                       " is not in the paper grid");
        const auto wi = static_cast<std::size_t>(w - grid.workloads.begin());
        const auto ci = static_cast<std::size_t>(c - grid.configs.begin());
        if (grid.cells[wi][ci])
            sim::fatal(where + "duplicate cell " + cell +
                       " (first at line " +
                       std::to_string(lines[wi][ci]) + ")");
        if (!row.ok)
            sim::fatal(where + "cell " + cell +
                       " failed: " + row.error);
        if (row.metrics.elapsed == 0)
            sim::fatal(where + "cell " + cell + " has elapsed_ticks 0");
        grid.cells[wi][ci] = &row.metrics;
        lines[wi][ci] = line;
    }

    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t c = 0; c < grid.configs.size(); ++c) {
            if (!grid.cells[w][c])
                sim::fatal(what + ": missing cell " +
                           grid.workloads[w]->name + " on " +
                           grid.configs[c]);
        }
        // Speedup compares completion times, so every config of a
        // workload must have issued the same work.
        for (std::size_t c = 1; c < grid.configs.size(); ++c) {
            if (grid.cells[w][c]->requests_issued !=
                grid.cells[w][0]->requests_issued)
                sim::fatal(
                    what + ":" + std::to_string(lines[w][c]) +
                    ": cell " + grid.workloads[w]->name + " on " +
                    grid.configs[c] + " issued " +
                    std::to_string(grid.cells[w][c]->requests_issued) +
                    " requests, but " + grid.configs[0] +
                    " (line " + std::to_string(lines[w][0]) +
                    ") issued " +
                    std::to_string(grid.cells[w][0]->requests_issued));
        }
    }
    return grid;
}

/** A table titled @p title with a Benchmark column, one column per
 * paper config, then @p extra. */
stats::TableWriter
gridTable(const PaperGrid &grid, const std::string &title,
          const std::string &extra = "")
{
    stats::TableWriter table(title);
    std::vector<std::string> header = {"Benchmark"};
    header.insert(header.end(), grid.configs.begin(), grid.configs.end());
    if (!extra.empty())
        header.push_back(extra);
    table.setHeader(header);
    return table;
}

void
writeSpeedup(std::ostream &os, const PaperGrid &grid)
{
    const std::size_t baseline = grid.column("LMesh/ECM");
    const std::size_t hmesh_ecm = grid.column("HMesh/ECM");
    const std::size_t hmesh_ocm = grid.column("HMesh/OCM");
    const std::size_t xbar_ocm = grid.column("XBar/OCM");

    stats::TableWriter table =
        gridTable(grid, "Figure 8: Normalized Speedup (vs LMesh/ECM)");
    // Per-class geomean accumulators for the Section 5 summary.
    std::vector<double> syn_hmesh_gain, syn_xbar_gain;
    std::vector<double> spl_hmesh_gain, spl_xbar_gain;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const auto &row = grid.cells[w];
        const auto speedup = [&](std::size_t c) {
            return row[c]->speedupOver(*row[baseline]);
        };
        std::vector<std::string> cells = {grid.workloads[w]->name};
        for (std::size_t c = 0; c < row.size(); ++c)
            cells.push_back(stats::formatDouble(speedup(c), 2));
        table.addRow(cells);

        const double ocm_gain = speedup(hmesh_ocm) / speedup(hmesh_ecm);
        const double xbar_gain = speedup(xbar_ocm) / speedup(hmesh_ocm);
        if (grid.workloads[w]->synthetic) {
            syn_hmesh_gain.push_back(ocm_gain);
            syn_xbar_gain.push_back(xbar_gain);
        } else {
            spl_hmesh_gain.push_back(ocm_gain);
            spl_xbar_gain.push_back(xbar_gain);
        }
    }
    table.print(os);

    const auto gmean = [](const std::vector<double> &gains) {
        return stats::formatDouble(stats::geometricMean(gains), 2);
    };
    os << "\nSection 5 geometric-mean summary (paper values in "
          "parentheses):\n"
       << "  synthetic: OCM over ECM (HMesh) " << gmean(syn_hmesh_gain)
       << "x (3.28x); crossbar over HMesh/OCM " << gmean(syn_xbar_gain)
       << "x (2.36x)\n"
       << "  SPLASH-2:  OCM over ECM (HMesh) " << gmean(spl_hmesh_gain)
       << "x (1.80x); crossbar over HMesh/OCM " << gmean(spl_xbar_gain)
       << "x (1.44x)\n";
}

void
writeBandwidth(std::ostream &os, const PaperGrid &grid)
{
    // Offered load is a property of the workload; read it off the
    // baseline cell.
    const std::size_t baseline = grid.column("LMesh/ECM");
    stats::TableWriter table = gridTable(
        grid, "Figure 9: Achieved Bandwidth (TB/s)", "offered");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::vector<std::string> cells = {grid.workloads[w]->name};
        for (const core::RunMetrics *metrics : grid.cells[w])
            cells.push_back(stats::formatDouble(
                metrics->achieved_bytes_per_second / 1e12, 2));
        cells.push_back(stats::formatDouble(
            grid.cells[w][baseline]->offered_bytes_per_second / 1e12,
            2));
        table.addRow(cells);
    }
    table.print(os);

    os << "\nShape checks: ECM columns saturate near 0.96 TB/s on "
          "demanding workloads;\nHot Spot pins at one "
          "controller's 0.16 TB/s; the 2-5 TB/s class (Uniform,\n"
          "Tornado, Transpose, Cholesky, FFT, Ocean, Radix) is "
          "realized only on XBar/OCM.\n";
}

void
writeLatency(std::ostream &os, const PaperGrid &grid)
{
    const std::size_t xbar_ocm = grid.column("XBar/OCM");
    stats::TableWriter table = gridTable(
        grid, "Figure 10: Average L2 Miss Latency (ns)", "XBar p95");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::vector<std::string> cells = {grid.workloads[w]->name};
        for (const core::RunMetrics *metrics : grid.cells[w])
            cells.push_back(
                stats::formatDouble(metrics->avg_latency_ns, 0));
        cells.push_back(stats::formatDouble(
            grid.cells[w][xbar_ocm]->p95_latency_ns, 0));
        table.addRow(cells);
    }
    table.print(os);

    os << "\nShape checks: bursty LU and Raytrace see large ECM "
          "latencies that OCM slashes\nand the crossbar improves "
          "further; low-demand applications sit near the ~40-60 "
          "ns\nuncontended round trip everywhere.\n";
}

void
writePower(std::ostream &os, const PaperGrid &grid)
{
    std::vector<bool> mesh;
    for (const std::string &config : grid.configs)
        mesh.push_back(core::namedConfig(config).network !=
                       core::NetworkKind::XBar);

    stats::TableWriter table =
        gridTable(grid, "Figure 11: On-chip Network Power (W)");
    double worst_mesh = 0.0;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::vector<std::string> cells = {grid.workloads[w]->name};
        for (std::size_t c = 0; c < grid.configs.size(); ++c) {
            const double watts = grid.cells[w][c]->network_power_w;
            cells.push_back(stats::formatDouble(watts, 1));
            if (mesh[c])
                worst_mesh = std::max(worst_mesh, watts);
        }
        table.addRow(cells);
    }
    table.print(os);

    os << "\nShape checks: the crossbar holds a flat 26 W; for "
          "cache-resident workloads the\nmeshes dissipate less, "
          "but on memory-intensive workloads mesh power climbs "
          "toward\n100 W+ while delivering less performance "
          "(worst mesh point here: "
       << stats::formatDouble(worst_mesh, 1) << " W).\n";
}

} // namespace

void
writePaperFigures(std::ostream &os, const std::vector<RunRecord> &rows,
                  const std::string &what)
{
    const PaperGrid grid = collectGrid(rows, what);
    writeSpeedup(os, grid);
    writeBandwidth(os, grid);
    writeLatency(os, grid);
    writePower(os, grid);
}

} // namespace corona::campaign
