/**
 * @file
 * Crash-tolerant campaign checkpointing.
 *
 * A checkpoint file starts with a header line binding it to one
 * campaign (a fingerprint of the spec's axes and seeding plus the grid
 * cardinality), followed by one CsvSink-schema row per finished run,
 * flushed as it completes. Killing a campaign at any point leaves a
 * loadable file: a final line torn mid-write is ignored, and when the
 * same file accumulates several sessions the last row for a run index
 * wins. Resuming feeds the
 * loaded records to CampaignRunner::run(spec, completed), which skips
 * finished cells, re-executes failed ones, and replays persisted
 * records into the sinks so final sink bytes match an uninterrupted
 * run.
 */

#ifndef CORONA_CAMPAIGN_CHECKPOINT_HH
#define CORONA_CAMPAIGN_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/sink.hh"
#include "campaign/spec.hh"

namespace corona::campaign {

/**
 * Identity hash of a campaign's grid: name, axis labels (workload /
 * config / override names), seed salts, campaign seed, seed policy,
 * and the base request/warmup/seed parameters. Workload factories and
 * override closures cannot be hashed — two specs that differ only in
 * behaviour, not labels, collide, so name axes meaningfully.
 */
std::uint64_t specFingerprint(const CampaignSpec &spec);

/** A parsed checkpoint file. */
struct CheckpointData
{
    std::uint64_t fingerprint = 0;
    std::size_t total_runs = 0;
    /** Last-wins deduped records, ascending run index. */
    std::vector<RunRecord> records;
};

/**
 * Parse a checkpoint stream. Fatal on a malformed header or row (a
 * second header line is a malformed row), naming its line; a final
 * row not terminated by a newline (torn by a crash) is dropped.
 */
CheckpointData readCheckpoint(std::istream &is);

/**
 * readCheckpoint, validated against @p spec: the fingerprint and grid
 * cardinality must match (fatal otherwise), and each record's axis
 * indices are reconstructed from its run index so replayed records are
 * indistinguishable from freshly executed ones to every sink.
 */
std::vector<RunRecord> loadCheckpoint(std::istream &is,
                                      const CampaignSpec &spec);

/**
 * Write a complete checkpoint (header + one row per record) for
 * @p spec to @p os. Used to compact a checkpoint before appending to
 * it: re-serialising what loadCheckpoint returned sheds torn trailing
 * bytes and duplicate rows, so the appended file stays loadable.
 */
void rewriteCheckpoint(std::ostream &os, const CampaignSpec &spec,
                       const std::vector<RunRecord> &records);

/**
 * Sink that appends one row per finished run, flushing after each so a
 * killed process loses at most the row being written. Pass the run
 * indices already present in the file (from readCheckpoint) so a
 * resumed session's replayed records are not written twice.
 */
class CheckpointWriter : public ResultSink
{
  public:
    /**
     * @param os Stream positioned at end of the checkpoint file.
     * @param write_header Emit the header line in begin() — true for a
     *        fresh file, false when appending to a validated one.
     * @param persisted Run indices already present in the file.
     */
    CheckpointWriter(std::ostream &os, bool write_header,
                     std::unordered_set<std::size_t> persisted = {});

    void begin(const CampaignSpec &spec,
               std::size_t total_runs) override;
    void consume(const RunRecord &record) override;

  private:
    std::ostream &_os;
    bool _write_header;
    std::unordered_set<std::size_t> _persisted;
};

/**
 * One on-disk checkpoint session: open @p path, load and validate any
 * records a previous session left there (compacting torn trailing
 * bytes via rewrite-and-rename so appending stays safe), then expose a
 * CheckpointWriter positioned to append this session's fresh rows.
 * runScenario opens one for the scenario's checkpoint key.
 */
class CheckpointFile
{
  public:
    /** Fatal when the file exists but cannot be read, names a
     * different campaign, or cannot be (re)opened for appending. */
    CheckpointFile(const std::string &path, const CampaignSpec &spec);

    /** The append sink; rows replayed from this file are skipped. */
    ResultSink &sink() { return *_sink; }

    /** Records loaded from the file, ascending run index. */
    const std::vector<RunRecord> &completed() const
    {
        return _completed;
    }

    /** Move the loaded records out (for CampaignRunner::run). */
    std::vector<RunRecord> takeCompleted()
    {
        return std::move(_completed);
    }

    /** The underlying stream (e.g. for extra test instrumentation). */
    std::ofstream &stream() { return _stream; }

    /** Fatal if any append failed — a truncated checkpoint must not
     * pass for a finished one. */
    void checkWritten();

  private:
    std::string _path;
    std::ofstream _stream;
    std::unique_ptr<CheckpointWriter> _sink;
    std::vector<RunRecord> _completed;
};

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_CHECKPOINT_HH
