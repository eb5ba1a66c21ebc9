/**
 * @file
 * Replicate aggregation across a campaign's seed axis.
 *
 * A campaign with S seed replicates produces S records per
 * (workload × config × override) cell. SummarySink folds those
 * replicates into one row per cell — mean, sample standard deviation,
 * and a 95 % confidence-interval half-width (Student's t for small n)
 * for each headline metric — instead of making every caller average
 * raw rows by hand. Rows are available in memory after end() and,
 * optionally, as a summary CSV.
 */

#ifndef CORONA_CAMPAIGN_AGGREGATE_HH
#define CORONA_CAMPAIGN_AGGREGATE_HH

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "stats/stats.hh"

namespace corona::campaign {

/** Mean / spread of one metric over a cell's successful replicates. */
struct MetricSummary
{
    double mean = 0.0;
    /** Sample standard deviation (n-1); 0 with a single replicate. */
    double stddev = 0.0;
    /** 95 % CI half-width, t(n-1) * stddev / sqrt(n); 0 when n < 2. */
    double ci95 = 0.0;
    /** Smallest replicate value; 0 with no replicates. */
    double min = 0.0;
    /** Largest replicate value; 0 with no replicates. */
    double max = 0.0;
};

/** The metrics SummarySink aggregates, in summary-CSV column order. */
enum class SummaryMetric : std::size_t
{
    AvgLatencyNs = 0,
    P95LatencyNs,
    AchievedBytesPerSecond,
    NetworkPowerW,
    TokenWaitNs,
    Count,
};

/** One (workload × config × override) cell folded over its seeds. */
struct CellSummary
{
    std::size_t workload_index = 0;
    std::size_t config_index = 0;
    std::size_t override_index = 0;
    std::string workload;
    std::string config;
    std::string override_label;

    std::size_t replicates = 0; ///< Successful runs aggregated.
    std::size_t failed = 0;     ///< Failed runs excluded from stats.

    std::array<MetricSummary,
               static_cast<std::size_t>(SummaryMetric::Count)>
        metrics;

    const MetricSummary &metric(SummaryMetric which) const
    {
        return metrics[static_cast<std::size_t>(which)];
    }
};

/**
 * Two-sided 95 % Student's t critical value for @p df degrees of
 * freedom (exact table through df = 30, 1.96 asymptote beyond).
 */
double tCritical95(std::size_t df);

/**
 * Sink that groups records by (workload, config, override) cell and
 * summarises each cell's seed replicates at end(). Also correct for
 * single-seed campaigns (every cell reports one replicate, zero
 * spread). Fatal if the same cell/seed pair is consumed twice.
 */
class SummarySink : public ResultSink
{
  public:
    /** @param os Optional stream for the summary CSV written by
     *  end(); pass nullptr for in-memory summaries only. */
    explicit SummarySink(std::ostream *os = nullptr) : _os(os) {}

    void begin(const CampaignSpec &spec,
               std::size_t total_runs) override;
    void consume(const RunRecord &record) override;
    void end() override;

    /** Cell rows in grid order (workload-major, config, override).
     *  Populated by end(); cells with no records are omitted. */
    const std::vector<CellSummary> &summaries() const
    {
        return _summaries;
    }

    /** The summary-CSV schema, as written on the header line. */
    static const char *header();

  private:
    struct CellAccumulator
    {
        CellSummary cell;
        std::array<stats::RunningStats,
                   static_cast<std::size_t>(SummaryMetric::Count)>
            stats;
        std::vector<bool> seen_seeds;
        bool touched = false;
    };

    std::ostream *_os;
    std::size_t _configs = 0;
    std::size_t _overrides = 1;
    std::vector<CellAccumulator> _cells; ///< Dense grid of cells.
    std::vector<CellSummary> _summaries;
};

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_AGGREGATE_HH
