#include "campaign/sink.hh"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <string>

#include "sim/logging.hh"

namespace corona::campaign {

std::string
formatShortestDouble(double value)
{
    std::array<char, 64> buffer;
    const auto res = std::to_chars(buffer.data(),
                                   buffer.data() + buffer.size(), value);
    return std::string(buffer.data(), res.ptr);
}

std::optional<std::vector<std::string>>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (quoted) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += ch;
            }
        } else if (ch == '"') {
            if (!field.empty())
                return std::nullopt; // Quote mid-field.
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else {
            field += ch;
        }
    }
    if (quoted)
        return std::nullopt; // Unterminated quote.
    fields.push_back(std::move(field));
    return fields;
}

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (const char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

void
ResultSink::begin(const CampaignSpec &, std::size_t)
{
}

void
ResultSink::end()
{
}

const char *
CsvSink::header()
{
    return "run,workload,config,override,seed,status,error,"
           "requests_issued,requests_coalesced,elapsed_ticks,"
           "avg_latency_ns,p95_latency_ns,achieved_bytes_per_second,"
           "offered_bytes_per_second,network_power_w,token_wait_ns,"
           "hop_traversals,mshr_full_stalls,peak_mc_queue";
}

namespace {

/** Flatten newlines so every row occupies exactly one line: the
 * checkpoint reader is line-based, and a multi-line quoted field
 * (e.g. an exception message) would make the file unparseable. */
std::string
singleLine(std::string text)
{
    for (char &ch : text) {
        if (ch == '\n' || ch == '\r')
            ch = ' ';
    }
    return text;
}

} // namespace

std::string
csvRow(const RunRecord &record)
{
    const core::RunMetrics &m = record.metrics;
    std::string row;
    row += std::to_string(record.index);
    row += ',';
    row += csvEscape(singleLine(record.workload));
    row += ',';
    row += csvEscape(singleLine(record.config));
    row += ',';
    row += csvEscape(singleLine(record.override_label));
    row += ',';
    row += std::to_string(record.seed);
    row += ',';
    row += record.ok ? "ok" : "failed";
    row += ',';
    row += csvEscape(singleLine(record.error));
    row += ',';
    row += std::to_string(m.requests_issued);
    row += ',';
    row += std::to_string(m.requests_coalesced);
    row += ',';
    row += std::to_string(m.elapsed);
    row += ',';
    row += formatShortestDouble(m.avg_latency_ns);
    row += ',';
    row += formatShortestDouble(m.p95_latency_ns);
    row += ',';
    row += formatShortestDouble(m.achieved_bytes_per_second);
    row += ',';
    row += formatShortestDouble(m.offered_bytes_per_second);
    row += ',';
    row += formatShortestDouble(m.network_power_w);
    row += ',';
    row += formatShortestDouble(m.token_wait_ns);
    row += ',';
    row += std::to_string(m.hop_traversals);
    row += ',';
    row += std::to_string(m.mshr_full_stalls);
    row += ',';
    row += std::to_string(m.peak_mc_queue);
    return row;
}

namespace {

template <typename T>
std::optional<T>
parseNumber(const std::string &text)
{
    T value{};
    const auto res = std::from_chars(text.data(),
                                     text.data() + text.size(), value);
    if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
        return std::nullopt;
    return value;
}

} // namespace

std::optional<RunRecord>
parseRecordRow(const std::string &line)
{
    const auto fields = splitCsvRow(line);
    if (!fields || fields->size() != 19)
        return std::nullopt;
    const std::vector<std::string> &f = *fields;

    RunRecord record;
    core::RunMetrics &m = record.metrics;

    const auto index = parseNumber<std::size_t>(f[0]);
    const auto seed = parseNumber<std::uint64_t>(f[4]);
    const auto requests_issued = parseNumber<std::uint64_t>(f[7]);
    const auto requests_coalesced = parseNumber<std::uint64_t>(f[8]);
    const auto elapsed = parseNumber<std::uint64_t>(f[9]);
    const auto avg_latency = parseNumber<double>(f[10]);
    const auto p95_latency = parseNumber<double>(f[11]);
    const auto achieved = parseNumber<double>(f[12]);
    const auto offered = parseNumber<double>(f[13]);
    const auto power = parseNumber<double>(f[14]);
    const auto token_wait = parseNumber<double>(f[15]);
    const auto hops = parseNumber<std::uint64_t>(f[16]);
    const auto mshr = parseNumber<std::uint64_t>(f[17]);
    const auto peak_queue = parseNumber<std::size_t>(f[18]);
    if (!index || !seed || !requests_issued || !requests_coalesced ||
        !elapsed || !avg_latency || !p95_latency || !achieved ||
        !offered || !power || !token_wait || !hops || !mshr ||
        !peak_queue)
        return std::nullopt;
    if (f[5] != "ok" && f[5] != "failed")
        return std::nullopt;

    record.index = *index;
    record.workload = f[1];
    record.config = f[2];
    record.override_label = f[3];
    record.seed = *seed;
    record.ok = f[5] == "ok";
    record.error = f[6];
    m.workload = record.workload;
    m.config = record.config;
    m.requests_issued = *requests_issued;
    m.requests_coalesced = *requests_coalesced;
    m.elapsed = *elapsed;
    m.avg_latency_ns = *avg_latency;
    m.p95_latency_ns = *p95_latency;
    m.achieved_bytes_per_second = *achieved;
    m.offered_bytes_per_second = *offered;
    m.network_power_w = *power;
    m.token_wait_ns = *token_wait;
    m.hop_traversals = *hops;
    m.mshr_full_stalls = *mshr;
    m.peak_mc_queue = *peak_queue;
    return record;
}

std::vector<RunRecord>
readRunsCsv(std::istream &is, const std::string &what)
{
    // A CsvSink ends every line with a newline, so a line that
    // getline() returns at EOF was torn mid-write: it may still
    // decode (a cut number is a number), so refuse it outright.
    std::string line;
    if (!std::getline(is, line) || is.eof() || line != CsvSink::header())
        sim::fatal(what + ":1: expected the CSV sink header \"" +
                   CsvSink::header() + "\"");
    std::vector<RunRecord> records;
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        const std::string where = what + ":" + std::to_string(line_number);
        if (is.eof())
            sim::fatal(where + ": row is not newline-terminated (torn "
                               "file?)");
        auto record = parseRecordRow(line);
        if (!record)
            sim::fatal(where + ": malformed run row");
        records.push_back(std::move(*record));
    }
    return records;
}

void
CsvSink::begin(const CampaignSpec &, std::size_t)
{
    _os << header() << "\n";
}

void
CsvSink::consume(const RunRecord &record)
{
    _os << csvRow(record) << "\n";
}

void
MemorySink::begin(const CampaignSpec &spec, std::size_t total_runs)
{
    _records.clear();
    _records.reserve(total_runs);
    _workloads = spec.workloads.size();
    _configs = spec.configs.size();
    _seeds = spec.seeds.empty() ? 1 : spec.seeds.size();
    _overrides = spec.overrides.empty() ? 1 : spec.overrides.size();
}

void
MemorySink::consume(const RunRecord &record)
{
    _records.push_back(record);
}

std::vector<std::vector<core::RunMetrics>>
MemorySink::grid() const
{
    if (_seeds != 1 || _overrides != 1)
        sim::fatal("MemorySink::grid: campaign has replicate seed or "
                   "override axes; use records() instead");
    if (_records.size() != _workloads * _configs)
        sim::fatal("MemorySink::grid: incomplete campaign (" +
                   std::to_string(_records.size()) + " of " +
                   std::to_string(_workloads * _configs) + " runs)");

    std::vector<std::vector<core::RunMetrics>> grid(_workloads);
    for (auto &row : grid)
        row.resize(_configs);
    for (const RunRecord &record : _records) {
        if (!record.ok)
            sim::fatal("MemorySink::grid: run " +
                       std::to_string(record.index) + " (" +
                       record.workload + " on " + record.config +
                       ") failed: " + record.error);
        grid[record.workload_index][record.config_index] =
            record.metrics;
    }
    return grid;
}

} // namespace corona::campaign
