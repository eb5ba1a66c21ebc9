#include "campaign/checkpoint.hh"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace corona::campaign {

namespace {

constexpr const char *kMagic = "corona-campaign-checkpoint";
constexpr const char *kVersion = "v1";

/** Order-sensitive chained hash over the spec's identity fields. */
class Fingerprint
{
  public:
    void mix(std::uint64_t x)
    {
        _h = sim::splitmix64(_h ^ sim::splitmix64(x));
    }

    void mix(const std::string &text)
    {
        mix(text.size());
        std::uint64_t chunk = 0;
        std::size_t filled = 0;
        for (const char ch : text) {
            chunk |= static_cast<std::uint64_t>(
                         static_cast<unsigned char>(ch))
                     << (8 * filled);
            if (++filled == 8) {
                mix(chunk);
                chunk = 0;
                filled = 0;
            }
        }
        if (filled > 0)
            mix(chunk);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0x436f726f6e614350ull; // "CoronaCP"
};

std::string
toHex(std::uint64_t value)
{
    constexpr const char *digits = "0123456789abcdef";
    std::string hex(16, '0');
    for (int nibble = 15; nibble >= 0; --nibble) {
        hex[static_cast<std::size_t>(nibble)] = digits[value & 0xF];
        value >>= 4;
    }
    return hex;
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t total_runs)
{
    return std::string(kMagic) + " " + kVersion +
           " fingerprint=" + toHex(fingerprint) +
           " total=" + std::to_string(total_runs);
}

} // namespace

std::uint64_t
specFingerprint(const CampaignSpec &spec)
{
    Fingerprint fp;
    fp.mix(spec.name);
    fp.mix(spec.workloads.size());
    for (const WorkloadSpec &workload : spec.workloads) {
        fp.mix(workload.name);
        fp.mix(workload.synthetic ? 1 : 0);
    }
    fp.mix(spec.configs.size());
    for (const core::SystemConfig &config : spec.configs)
        fp.mix(config.name());
    fp.mix(spec.seeds.size());
    for (const std::uint64_t salt : spec.seeds)
        fp.mix(salt);
    fp.mix(spec.overrides.size());
    for (const ParamsOverride &override_ : spec.overrides)
        fp.mix(override_.label);
    fp.mix(spec.campaign_seed);
    fp.mix(static_cast<std::uint64_t>(spec.seed_policy));
    fp.mix(spec.base.requests);
    fp.mix(spec.base.warmup_requests);
    fp.mix(spec.base.seed);
    return fp.value();
}

namespace {

/** Parse "<magic> <version> fingerprint=<hex> total=<N>". */
std::optional<std::pair<std::uint64_t, std::size_t>>
parseHeaderLine(const std::string &line)
{
    std::istringstream header(line);
    std::string magic, version, fingerprint_kv, total_kv;
    header >> magic >> version >> fingerprint_kv >> total_kv;
    const auto value = [](const std::string &kv, const std::string &key)
        -> std::optional<std::string> {
        if (kv.rfind(key + "=", 0) != 0)
            return std::nullopt;
        return kv.substr(key.size() + 1);
    };
    const auto fingerprint_hex = value(fingerprint_kv, "fingerprint");
    const auto total_text = value(total_kv, "total");
    if (magic != kMagic || version != kVersion || !fingerprint_hex ||
        !total_text)
        return std::nullopt;
    const auto parse = [](const std::string &text, auto &value,
                          int base) {
        const auto res = std::from_chars(
            text.data(), text.data() + text.size(), value, base);
        return res.ec == std::errc{} &&
               res.ptr == text.data() + text.size();
    };
    std::uint64_t fingerprint = 0;
    std::size_t total = 0;
    if (!parse(*fingerprint_hex, fingerprint, 16) ||
        !parse(*total_text, total, 10))
        return std::nullopt;
    return std::make_pair(fingerprint, total);
}

} // namespace

CheckpointData
readCheckpoint(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || is.eof())
        sim::fatal("checkpoint: missing or torn header line");

    CheckpointData data;
    {
        const auto header = parseHeaderLine(line);
        if (!header)
            sim::fatal("checkpoint: malformed header \"" + line + "\"");
        data.fingerprint = header->first;
        data.total_runs = header->second;
    }

    // Ordered so resume replay and concatenated shard files come back
    // in ascending run index; later rows overwrite earlier ones (a
    // failed run re-executed in a later session appends its ok row).
    std::map<std::size_t, RunRecord> by_index;
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        // getline hitting EOF means the line had no terminating
        // newline: the process died mid-write, so drop the torn row.
        if (is.eof())
            break;
        if (line.empty())
            continue;
        // Concatenated shard files carry interior headers: accept
        // them when they name the same campaign, reject otherwise.
        if (line.rfind(kMagic, 0) == 0) {
            const auto header = parseHeaderLine(line);
            if (!header || header->first != data.fingerprint ||
                header->second != data.total_runs)
                sim::fatal("checkpoint: header at line " +
                           std::to_string(line_number) +
                           " names a different campaign — refusing "
                           "to merge");
            continue;
        }
        auto record = parseRecordRow(line);
        if (!record)
            sim::fatal("checkpoint: malformed row at line " +
                       std::to_string(line_number));
        if (record->index >= data.total_runs)
            sim::fatal("checkpoint: row at line " +
                       std::to_string(line_number) + " has run index " +
                       std::to_string(record->index) +
                       " outside the campaign's " +
                       std::to_string(data.total_runs) + " runs");
        by_index.insert_or_assign(record->index, std::move(*record));
    }

    data.records.reserve(by_index.size());
    for (auto &[index, record] : by_index)
        data.records.push_back(std::move(record));
    return data;
}

namespace {

/** Fatal unless @p data names @p spec's fingerprint and grid size. */
void
validateAgainstSpec(const CheckpointData &data,
                    const CampaignSpec &spec)
{
    const std::uint64_t expected = specFingerprint(spec);
    if (data.fingerprint != expected)
        sim::fatal("checkpoint: fingerprint " + toHex(data.fingerprint) +
                   " does not match campaign \"" + spec.name + "\" (" +
                   toHex(expected) + ") — refusing to resume");
    if (data.total_runs != spec.totalRuns())
        sim::fatal("checkpoint: grid cardinality " +
                   std::to_string(data.total_runs) +
                   " does not match campaign \"" + spec.name + "\" (" +
                   std::to_string(spec.totalRuns()) + ")");
}

/** Rebuild the axis indices the CSV schema omits from the run
 * index's mixed-radix decomposition (workload-major, then config,
 * seed, override — the expand() order). */
void
reindexRecords(std::vector<RunRecord> &records,
               const CampaignSpec &spec)
{
    const std::size_t seed_count =
        spec.seeds.empty() ? 1 : spec.seeds.size();
    const std::size_t override_count =
        spec.overrides.empty() ? 1 : spec.overrides.size();
    for (RunRecord &record : records) {
        std::size_t rest = record.index;
        record.override_index = rest % override_count;
        rest /= override_count;
        record.seed_index = rest % seed_count;
        rest /= seed_count;
        record.config_index = rest % spec.configs.size();
        record.workload_index = rest / spec.configs.size();
    }
}

} // namespace

std::vector<RunRecord>
loadCheckpoint(std::istream &is, const CampaignSpec &spec)
{
    CheckpointData data = readCheckpoint(is);
    validateAgainstSpec(data, spec);
    reindexRecords(data.records, spec);
    return data.records;
}

std::vector<RunRecord>
mergeCheckpointFiles(const std::vector<std::string> &paths,
                     const CampaignSpec &spec)
{
    // Parse each shard file on its own (so a crashed shard's torn
    // tail is dropped by its own reader instead of fusing with the
    // next file's header), then merge last-wins by run index — the
    // same result as concatenating intact files and loading once.
    std::map<std::size_t, RunRecord> by_index;
    for (const std::string &path : paths) {
        std::ifstream stream(path);
        if (!stream)
            sim::fatal("checkpoint merge: cannot read \"" + path +
                       "\"");
        CheckpointData data = readCheckpoint(stream);
        validateAgainstSpec(data, spec);
        for (RunRecord &record : data.records) {
            const std::size_t index = record.index;
            by_index.insert_or_assign(index, std::move(record));
        }
    }
    std::vector<RunRecord> merged;
    merged.reserve(by_index.size());
    for (auto &[index, record] : by_index)
        merged.push_back(std::move(record));
    reindexRecords(merged, spec);
    return merged;
}

void
rewriteCheckpoint(std::ostream &os, const CampaignSpec &spec,
                  const std::vector<RunRecord> &records)
{
    os << headerLine(specFingerprint(spec), spec.totalRuns()) << "\n";
    for (const RunRecord &record : records)
        os << csvRow(record) << "\n";
    os.flush();
    if (!os)
        sim::fatal("checkpoint: write error while rewriting "
                   "checkpoint");
}

CheckpointWriter::CheckpointWriter(
    std::ostream &os, bool write_header,
    std::unordered_set<std::size_t> persisted)
    : _os(os), _write_header(write_header),
      _persisted(std::move(persisted))
{
}

void
CheckpointWriter::begin(const CampaignSpec &spec, std::size_t)
{
    // The header records the full grid cardinality (not this shard's
    // slice) so any shard's file validates against the whole spec and
    // shard files concatenate into one resumable checkpoint.
    if (_write_header) {
        _os << headerLine(specFingerprint(spec), spec.totalRuns())
            << "\n";
        _os.flush();
    }
}

void
CheckpointWriter::consume(const RunRecord &record)
{
    if (_persisted.count(record.index))
        return; // Replayed from this very file; already on disk.
    _os << csvRow(record) << "\n";
    _os.flush();
    if (!_os)
        sim::fatal("checkpoint: write error — checkpoint file is "
                   "incomplete");
}

CheckpointFile::CheckpointFile(const std::string &path,
                               const CampaignSpec &spec)
    : _path(path)
{
    bool fresh = true;
    {
        std::ifstream existing(path);
        if (existing) {
            if (existing.peek() !=
                std::ifstream::traits_type::eof()) {
                _completed = loadCheckpoint(existing, spec);
                fresh = false;
            }
        } else if (std::filesystem::exists(path)) {
            // Unreadable but present: truncating it as "fresh" would
            // destroy completed results the file exists to protect.
            sim::fatal("checkpoint: \"" + path +
                       "\" exists but cannot be read — refusing to "
                       "overwrite it");
        }
    }

    if (!fresh) {
        // Compact before appending: a crash may have left torn
        // trailing bytes that would fuse with the next appended row.
        // Rewrite to a temp file and rename so a crash mid-compaction
        // cannot lose the original either.
        const std::string temp = path + ".tmp";
        {
            std::ofstream rewritten(temp, std::ios::trunc);
            if (!rewritten)
                sim::fatal("checkpoint: cannot open \"" + temp +
                           "\" for writing");
            rewriteCheckpoint(rewritten, spec, _completed);
        }
        if (std::rename(temp.c_str(), path.c_str()) != 0)
            sim::fatal("checkpoint: cannot replace \"" + path +
                       "\" with compacted copy");
    }

    // Only successful rows are replayed (and must not double-write);
    // a failed run re-executes, and its fresh row must append so
    // last-wins dedupe supersedes the failure on the next load.
    std::unordered_set<std::size_t> persisted;
    persisted.reserve(_completed.size());
    for (const RunRecord &record : _completed) {
        if (record.ok)
            persisted.insert(record.index);
    }

    _stream.open(path, fresh ? std::ios::trunc : std::ios::app);
    if (!_stream)
        sim::fatal("checkpoint: cannot open \"" + path +
                   "\" for writing");
    _sink = std::make_unique<CheckpointWriter>(_stream, fresh,
                                               std::move(persisted));
}

void
CheckpointFile::checkWritten()
{
    _stream.flush();
    if (!_stream)
        sim::fatal("checkpoint: write error, \"" + _path +
                   "\" is incomplete");
}

} // namespace corona::campaign
