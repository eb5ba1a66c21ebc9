/**
 * @file
 * corona-stats — inspect and summarize src/obs output files, and render
 * the paper's figures from a campaign CSV sink.
 *
 * The observability planes write three file shapes (see README
 * "Observability"): one container per run (run<N>.obs.bin) holding
 * the binary time-series and trace planes (with CSV / Chrome-JSON
 * export on demand), registry snapshot CSVs, and the campaign rollup
 * file. This tool checks and condenses them from the command line:
 *
 *   corona-stats summary  RUN.obs.bin          column stats
 *   corona-stats export   RUN.obs.bin [OUT]    time series -> CSV
 *   corona-stats trace    RUN.obs.bin          validate + count
 *   corona-stats trace    RUN.obs.bin --export OUT
 *                         [--counters RUN.obs.bin --prefix P]
 *                         Chrome JSON (optionally with probe counter
 *                         tracks)
 *   corona-stats snapshot RUN.snapshot.csv [PREFIX] print (filtered)
 *   corona-stats report   OBS_DIR [--top N] [--probes PREFIX]
 *                         render the campaign rollup OBS_DIR/rollup.csv
 *   corona-stats figures  RUNS.csv        Figures 8-11 from the CSV of
 *                         a finished scenarios/fig9.scenario run
 *
 * summary, export and trace read only containers: the CSV and JSON
 * they export are for other tools and are not read back. Every
 * subcommand exits non-zero on a malformed file, so the CI smoke can
 * use it as a validity gate; all output is deterministic for a given
 * input.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/figures.hh"
#include "campaign/obs_rollup.hh"
#include "campaign/sink.hh"
#include "corona/knobs.hh"
#include "obs/observe.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace {

using namespace corona;

void
usage(std::ostream &os)
{
    os << "corona-stats — inspect observability dumps\n\n"
          "  corona-stats summary RUN.obs.bin\n"
          "      per-column count/mean/min/max over the sampled rows,\n"
          "      then a group,paths census by subsystem prefix\n"
          "  corona-stats export RUN.obs.bin [OUT.csv]\n"
          "      render the time series as CSV (stdout default)\n"
          "  corona-stats trace RUN.obs.bin\n"
          "      validate the trace; count events by name\n"
          "  corona-stats trace RUN.obs.bin --export OUT\n"
          "      [--counters RUN.obs.bin] [--prefix P]\n"
          "      export Chrome trace JSON, optionally with counter\n"
          "      tracks for time-series probes under PATH\n"
          "  corona-stats snapshot FILE.snapshot.csv [PREFIX]\n"
          "      print snapshot rows (only those under PREFIX)\n"
          "  corona-stats report OBS_DIR [--top N] [--probes PREFIX]\n"
          "      render the campaign rollup report from\n"
          "      OBS_DIR/rollup.csv\n"
          "  corona-stats figures RUNS.csv\n"
          "      print the Figure 8-11 tables from the CSV sink of a\n"
          "      finished paper-grid run (scenarios/fig9.scenario)\n";
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "corona-stats: " << message << "\n";
    std::exit(1);
}

std::ifstream
openOrDie(const std::string &path)
{
    std::ifstream stream(path, std::ios::binary);
    if (!stream)
        die("cannot read \"" + path + "\"");
    return stream;
}

int
summarizeTimeSeries(const std::string &path)
{
    const obs::TimeSeriesData data = obs::loadTimeSeriesFile(path);
    const std::size_t probes = data.paths.size();
    std::vector<stats::RunningStats> columns(probes);
    for (std::size_t row = 0; row < data.rows(); ++row) {
        for (std::size_t i = 0; i < probes; ++i)
            columns[i].sample(data.values[row * probes + i]);
    }

    std::cout << "rows," << data.rows() << "\n";
    std::cout << "path,count,mean,min,max\n";
    for (std::size_t i = 0; i < probes; ++i) {
        const stats::RunningStats &column = columns[i];
        std::cout << data.paths[i] << "," << column.count() << ","
                  << obs::formatValue(column.mean()) << ","
                  << obs::formatValue(column.min()) << ","
                  << obs::formatValue(column.max()) << "\n";
    }

    // Registry paths are slash-separated; the subsystem prefix (e.g.
    // "cache", "coherence", "hub") groups the columns for a quick
    // which-planes-are-present read. First-seen order keeps the
    // output deterministic for a given file.
    std::vector<std::string> groups;
    std::vector<std::uint64_t> group_counts;
    for (const std::string &probe : data.paths) {
        const std::string group = probe.substr(0, probe.find('/'));
        bool seen = false;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (groups[g] == group) {
                ++group_counts[g];
                seen = true;
                break;
            }
        }
        if (!seen) {
            groups.push_back(group);
            group_counts.push_back(1);
        }
    }
    std::cout << "group,paths\n";
    for (std::size_t g = 0; g < groups.size(); ++g)
        std::cout << groups[g] << "," << group_counts[g] << "\n";
    return 0;
}

int
exportTimeSeries(const std::string &path, const std::string &out)
{
    const obs::TimeSeriesData data = obs::loadTimeSeriesFile(path);
    if (out.empty() || out == "-") {
        obs::writeTimeSeriesCsv(std::cout, data);
        return 0;
    }
    std::ofstream os(out, std::ios::trunc | std::ios::binary);
    if (!os)
        die("cannot open \"" + out + "\" for writing");
    obs::writeTimeSeriesCsv(os, data);
    os.flush();
    if (!os)
        die("write failed: " + out);
    return 0;
}

int
summarizeTrace(const std::string &path)
{
    const obs::TraceData data = obs::loadTraceFile(path);
    std::vector<std::string> names;
    std::vector<std::uint64_t> counts;
    for (const obs::TraceEvent &event : data.events) {
        const std::string name = obs::traceName(event.kind);
        bool seen = false;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name) {
                ++counts[i];
                seen = true;
                break;
            }
        }
        if (!seen) {
            names.push_back(name);
            counts.push_back(1);
        }
    }
    std::cout << "events," << data.events.size() << "\n";
    for (std::size_t i = 0; i < names.size(); ++i)
        std::cout << names[i] << "," << counts[i] << "\n";
    if (data.recorded > data.events.size())
        std::cout << "dropped,"
                  << data.recorded - data.events.size() << "\n";
    return 0;
}

int
traceCommand(const std::string &path,
             const std::vector<std::string> &args)
{
    std::string export_path;
    std::string counters_path;
    std::string prefix;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto take = [&](const char *what) -> const std::string & {
            if (i + 1 >= args.size())
                die(std::string(what) + " needs a value");
            return args[++i];
        };
        if (arg == "--export")
            export_path = take("--export");
        else if (arg == "--counters")
            counters_path = take("--counters");
        else if (arg == "--prefix")
            prefix = take("--prefix");
        else
            die("unknown trace option \"" + arg + "\"");
    }

    if (export_path.empty()) {
        if (!counters_path.empty() || !prefix.empty())
            die("--counters/--prefix only apply with --export");
        return summarizeTrace(path);
    }

    const obs::TraceData data = obs::loadTraceFile(path);
    obs::TimeSeriesData counters;
    if (!counters_path.empty())
        counters = obs::loadTimeSeriesFile(counters_path);
    const auto emit = [&](std::ostream &os) {
        obs::writeChromeTraceJson(
            os, data.events,
            counters_path.empty() ? nullptr : &counters, prefix);
    };
    if (export_path == "-") {
        emit(std::cout);
        return 0;
    }
    std::ofstream os(export_path, std::ios::trunc | std::ios::binary);
    if (!os)
        die("cannot open \"" + export_path + "\" for writing");
    emit(os);
    os.flush();
    if (!os)
        die("write failed: " + export_path);
    return 0;
}

int
printSnapshot(const std::string &path, const std::string &prefix)
{
    std::ifstream stream = openOrDie(path);
    std::string line;
    if (!std::getline(stream, line) || line != "path,value")
        die(path + ": snapshot header must be \"path,value\"");
    std::size_t line_no = 1;
    while (std::getline(stream, line)) {
        ++line_no;
        const std::size_t comma = line.rfind(',');
        if (comma == std::string::npos)
            die(path + ":" + std::to_string(line_no) +
                ": not a path,value row: \"" + line + "\"");
        if (prefix.empty() || line.compare(0, prefix.size(), prefix) == 0)
            std::cout << line << "\n";
    }
    return 0;
}

int
reportCommand(const std::string &dir,
              const std::vector<std::string> &args)
{
    campaign::RollupReportOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto take = [&](const char *what) -> const std::string & {
            if (i + 1 >= args.size())
                die(std::string(what) + " needs a value");
            return args[++i];
        };
        if (arg == "--top") {
            const std::string &value = take("--top");
            const auto top = core::parsePositiveCount(value);
            if (!top)
                die("--top needs a positive count, got \"" + value +
                    "\"");
            options.top = *top;
        } else if (arg == "--probes") {
            options.probes = take("--probes");
        } else {
            die("unknown report option \"" + arg + "\"");
        }
    }

    campaign::writeRollupReport(
        std::cout, campaign::readRollupFile(dir + "/rollup.csv"), options);
    return 0;
}

int
figuresCommand(const std::string &path,
               const std::vector<std::string> &args)
{
    if (!args.empty())
        die("figures takes one CSV path and no options");
    std::ifstream stream = openOrDie(path);
    campaign::writePaperFigures(
        std::cout, campaign::readRunsCsv(stream, path), path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 &&
        (std::string(argv[1]) == "--help" ||
         std::string(argv[1]) == "-h")) {
        usage(std::cout);
        return 0;
    }
    if (argc < 3) {
        usage(std::cerr);
        return 2;
    }
    const std::string command = argv[1];
    const std::string path = argv[2];
    std::vector<std::string> rest;
    for (int i = 3; i < argc; ++i)
        rest.emplace_back(argv[i]);
    try {
        if (command == "summary")
            return summarizeTimeSeries(path);
        if (command == "export")
            return exportTimeSeries(path,
                                    rest.empty() ? "" : rest.front());
        if (command == "trace")
            return traceCommand(path, rest);
        if (command == "snapshot")
            return printSnapshot(path, rest.empty() ? "" : rest.front());
        if (command == "report")
            return reportCommand(path, rest);
        if (command == "figures")
            return figuresCommand(path, rest);
    } catch (const sim::FatalError &e) {
        die(e.what());
    }
    std::cerr << "corona-stats: unknown subcommand \"" << command
              << "\"\n\n";
    usage(std::cerr);
    return 2;
}
