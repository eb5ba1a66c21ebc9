/**
 * @file
 * Structured result sinks for campaign runs.
 *
 * The runner hands every finished RunRecord to each attached sink in
 * run-index order (not completion order), one record at a time under the
 * runner's lock — sink output is therefore byte-identical regardless of
 * worker-thread count. CsvSink serialises the full RunMetrics field
 * set for plotting scripts; MemorySink keeps records in memory and can
 * reshape them into a [workload][config] grid.
 */

#ifndef CORONA_CAMPAIGN_SINK_HH
#define CORONA_CAMPAIGN_SINK_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace corona::campaign {

/** Consumer of finished runs. Callbacks arrive serialised, with
 * consume() called in ascending RunRecord::index order. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Called once before any run executes. */
    virtual void begin(const CampaignSpec &spec, std::size_t total_runs);

    /** Called once per finished run, in run-index order. */
    virtual void consume(const RunRecord &record) = 0;

    /** Called once after every run has been consumed. */
    virtual void end();
};

/** Shortest round-trip decimal form (std::to_chars): the double
 * dialect every campaign CSV artifact shares — the checkpoint reader
 * depends on values surviving a parse exactly. */
std::string formatShortestDouble(double value);

/** RFC-4180 quoting, shared by every campaign CSV writer. */
std::string csvEscape(const std::string &cell);

/** Split one RFC-4180 CSV row into fields (the inverse of csvEscape
 * per field); nullopt on bad quoting. Used by the checkpoint and run
 * CSV readers. */
std::optional<std::vector<std::string>>
splitCsvRow(const std::string &line);

/** One RFC-4180-style CSV row for @p record in CsvSink::header()
 * column order, without a trailing newline. Doubles use the shortest
 * round-trip form, so parsing the row recovers the exact values, and
 * newlines inside string fields (e.g. exception messages) are
 * flattened to spaces so a row never spans lines — the line-based
 * checkpoint reader depends on both. */
std::string csvRow(const RunRecord &record);

/** Decode one csvRow() line back into a record (the inverse of
 * csvRow, bit-exact); nullopt on any malformed field. The axis
 * indices are not in the schema and stay zero. */
std::optional<RunRecord> parseRecordRow(const std::string &line);

/**
 * Read a finished CsvSink file: line 1 must be CsvSink::header() and
 * every later line must decode. Records come back in file order.
 * Fatal, naming @p what and the line, on any other input.
 */
std::vector<RunRecord> readRunsCsv(std::istream &is,
                                   const std::string &what);

/** Writes one RFC-4180-style CSV row per run (header first). */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os) : _os(os) {}

    void begin(const CampaignSpec &spec,
               std::size_t total_runs) override;
    void consume(const RunRecord &record) override;

    /** The schema, as written on the header line. */
    static const char *header();

  private:
    std::ostream &_os;
};

/** Retains records in memory. */
class MemorySink : public ResultSink
{
  public:
    void begin(const CampaignSpec &spec,
               std::size_t total_runs) override;
    void consume(const RunRecord &record) override;

    /** All records, ordered by run index. */
    const std::vector<RunRecord> &records() const { return _records; }

    /**
     * Metrics reshaped as [workload][config]. Fatal if the campaign
     * had replicate seed / override axes (the grid would be
     * ambiguous) or if any run failed.
     */
    std::vector<std::vector<core::RunMetrics>> grid() const;

  private:
    std::vector<RunRecord> _records;
    std::size_t _workloads = 0;
    std::size_t _configs = 0;
    std::size_t _seeds = 1;
    std::size_t _overrides = 1;
};

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SINK_HH
