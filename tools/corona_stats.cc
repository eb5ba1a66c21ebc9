/**
 * @file
 * corona-stats — inspect and summarize src/obs output files, and render
 * the paper's figures from a campaign CSV sink.
 *
 * The observability planes write several file shapes (see README
 * "Observability"): per-run binary time series and traces (with CSV /
 * Chrome-JSON export on demand), registry snapshot CSVs, and the
 * campaign rollup file. This tool checks and condenses them from the
 * command line:
 *
 *   corona-stats summary  RUN.{obs,timeseries}.bin|.csv  column stats
 *   corona-stats export   RUN.{obs,timeseries}.bin [OUT] binary -> CSV
 *   corona-stats trace    RUN.{obs,trace}.bin|.json  validate + count
 *   corona-stats trace    RUN.{obs,trace}.bin --export OUT
 *                         [--counters TS.bin --prefix P]  Chrome JSON
 *                         (optionally with probe counter tracks)
 *
 * Campaign runs write one container file per run (run<N>.obs.bin)
 * holding both the time-series and trace planes; every subcommand
 * above accepts either the container or a bare single-plane file.
 *   corona-stats snapshot RUN.snapshot.csv [PREFIX] print (filtered)
 *   corona-stats report   OBS_DIR [--top N] [--probes PREFIX]
 *                         render the campaign rollup OBS_DIR/rollup.csv
 *   corona-stats figures  RUNS.csv        Figures 8-11 from the CSV of
 *                         a finished scenarios/fig9.scenario run
 *
 * Every subcommand exits non-zero on a malformed file, so the CI smoke
 * can use it as a validity gate; all output is deterministic for a
 * given input.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/figures.hh"
#include "campaign/obs_rollup.hh"
#include "campaign/sink.hh"
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
          "  corona-stats summary FILE.{obs,timeseries}.bin|.csv\n"
          "      per-column count/mean/min/max over the sampled rows,\n"
          "      then a group,paths census by subsystem prefix\n"
          "  corona-stats export FILE.{obs,timeseries}.bin [OUT.csv]\n"
          "      render a binary time series as CSV (stdout default)\n"
          "  corona-stats trace FILE.{obs,trace}.bin|.json\n"
          "      validate the trace; count events by name\n"
          "  corona-stats trace FILE.{obs,trace}.bin --export OUT\n"
          "      [--counters FILE.{obs,timeseries}.bin] [--prefix P]\n"
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

/** Does the file at @p path open with the 8-byte @p magic? */
bool
hasMagic(const std::string &path, const char (&magic)[8])
{
    std::ifstream stream(path, std::ios::binary);
    if (!stream)
        die("cannot read \"" + path + "\"");
    char head[8] = {};
    stream.read(head, sizeof(head));
    return stream &&
           std::equal(head, head + sizeof(head), magic);
}

/** Split one CSV line (no quoting — none of our writers quote). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ','))
        fields.push_back(field);
    if (!line.empty() && line.back() == ',')
        fields.push_back("");
    return fields;
}

double
parseDoubleField(const std::string &text, const std::string &path,
                 std::size_t line_no)
{
    try {
        std::size_t used = 0;
        const double value = std::stod(text, &used);
        if (used != text.size())
            throw std::invalid_argument(text);
        return value;
    } catch (const std::exception &) {
        die(path + ":" + std::to_string(line_no) +
            ": not a number: \"" + text + "\"");
    }
}

int
summarizeTimeSeriesCsv(std::istream &stream, const std::string &path)
{
    std::string line;
    if (!std::getline(stream, line))
        die(path + ": empty file (expected a tick,<paths...> header)");
    const std::vector<std::string> header = splitCsv(line);
    if (header.size() < 2 || header[0] != "tick")
        die(path + ": header must be \"tick,<path>,...\", got \"" +
            line + "\"");

    std::vector<stats::RunningStats> columns(header.size() - 1);
    std::size_t rows = 0;
    std::size_t line_no = 1;
    while (std::getline(stream, line)) {
        ++line_no;
        const std::vector<std::string> fields = splitCsv(line);
        if (fields.size() != header.size())
            die(path + ":" + std::to_string(line_no) + ": expected " +
                std::to_string(header.size()) + " fields, got " +
                std::to_string(fields.size()));
        for (std::size_t i = 1; i < fields.size(); ++i)
            columns[i - 1].sample(
                parseDoubleField(fields[i], path, line_no));
        ++rows;
    }

    std::cout << "rows," << rows << "\n";
    std::cout << "path,count,mean,min,max\n";
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const stats::RunningStats &column = columns[i];
        std::cout << header[i + 1] << ","
                  << column.count() << ","
                  << obs::formatValue(column.count() ? column.mean()
                                                     : 0.0)
                  << ","
                  << obs::formatValue(column.count() ? column.min()
                                                     : 0.0)
                  << ","
                  << obs::formatValue(column.count() ? column.max()
                                                     : 0.0)
                  << "\n";
    }

    // Registry paths are slash-separated; the subsystem prefix (e.g.
    // "cache", "coherence", "hub") groups the columns for a quick
    // which-planes-are-present read. First-seen order keeps the
    // output deterministic for a given file.
    std::vector<std::string> groups;
    std::vector<std::uint64_t> group_counts;
    for (std::size_t i = 1; i < header.size(); ++i) {
        const std::size_t slash = header[i].find('/');
        const std::string group = slash == std::string::npos
                                      ? header[i]
                                      : header[i].substr(0, slash);
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
summarizeTimeSeries(const std::string &path)
{
    if (hasMagic(path, obs::timeSeriesMagic) ||
        hasMagic(path, obs::obsContainerMagic)) {
        // Binary run file (bare or per-run container): export to the
        // CSV bytes in memory and summarize those, so every format
        // takes the same code path.
        const obs::TimeSeriesData data =
            obs::loadTimeSeriesFile(path);
        std::stringstream csv;
        obs::writeTimeSeriesCsv(csv, data);
        return summarizeTimeSeriesCsv(csv, path);
    }
    std::ifstream stream = openOrDie(path);
    return summarizeTimeSeriesCsv(stream, path);
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

/** Extract the string value of "key":"value" inside @p object. */
std::string
jsonStringField(const std::string &object, const std::string &key,
                const std::string &path)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = object.find(needle);
    if (at == std::string::npos)
        die(path + ": trace event missing \"" + key + "\": " + object);
    const std::size_t start = at + needle.size();
    const std::size_t end = object.find('"', start);
    if (end == std::string::npos)
        die(path + ": unterminated \"" + key + "\" value: " + object);
    return object.substr(start, end - start);
}

void
printNameCounts(const std::vector<std::string> &names,
                const std::vector<std::uint64_t> &counts,
                std::uint64_t total)
{
    std::cout << "events," << total << "\n";
    for (std::size_t i = 0; i < names.size(); ++i)
        std::cout << names[i] << "," << counts[i] << "\n";
}

int
summarizeTraceJson(const std::string &path)
{
    std::ifstream stream = openOrDie(path);
    std::stringstream buffer;
    buffer << stream.rdbuf();
    const std::string text = buffer.str();

    const std::string opener = "\"traceEvents\":[";
    const std::size_t events_at = text.find(opener);
    if (text.empty() || text[0] != '{' || events_at == std::string::npos)
        die(path + ": not a Chrome trace ("
                   "{\"traceEvents\":[...]} expected)");
    const std::size_t close = text.rfind("]}");
    if (close == std::string::npos || close < events_at)
        die(path + ": unterminated traceEvents array");

    // Our writer emits flat one-level event objects, so object
    // boundaries are brace-matched scans (args adds one nested level).
    std::vector<std::string> names;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::size_t at = events_at + opener.size();
    while (at < close) {
        if (text[at] == ',' || text[at] == ' ') {
            ++at;
            continue;
        }
        if (text[at] != '{')
            die(path + ": expected '{' at offset " +
                std::to_string(at));
        int depth = 0;
        std::size_t end = at;
        for (; end < close; ++end) {
            if (text[end] == '{')
                ++depth;
            else if (text[end] == '}' && --depth == 0)
                break;
        }
        if (depth != 0)
            die(path + ": unterminated trace event object");
        const std::string object = text.substr(at, end - at + 1);
        for (const char *key : {"\"ph\":", "\"ts\":", "\"pid\":"}) {
            if (object.find(key) == std::string::npos)
                die(path + ": trace event missing " + key + ": " +
                    object);
        }
        const std::string name = jsonStringField(object, "name", path);
        jsonStringField(object, "cat", path);
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
        ++total;
        at = end + 1;
    }
    printNameCounts(names, counts, total);
    return 0;
}

int
summarizeTraceBinary(const std::string &path)
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
    printNameCounts(names, counts, data.events.size());
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
        return hasMagic(path, obs::traceMagic) ||
                       hasMagic(path, obs::obsContainerMagic)
                   ? summarizeTraceBinary(path)
                   : summarizeTraceJson(path);
    }

    if (!hasMagic(path, obs::traceMagic) &&
        !hasMagic(path, obs::obsContainerMagic))
        die(path + ": --export needs a binary trace file");
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
            char *end = nullptr;
            options.top = std::strtoull(value.c_str(), &end, 10);
            if (end != value.c_str() + value.size() || options.top == 0)
                die("--top needs a positive count, got \"" + value +
                    "\"");
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
