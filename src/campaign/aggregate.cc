#include "campaign/aggregate.hh"

#include <cmath>
#include <ostream>

#include "sim/logging.hh"

namespace corona::campaign {

namespace {

double
metricValue(const core::RunMetrics &m, SummaryMetric which)
{
    switch (which) {
      case SummaryMetric::AvgLatencyNs:
        return m.avg_latency_ns;
      case SummaryMetric::P95LatencyNs:
        return m.p95_latency_ns;
      case SummaryMetric::AchievedBytesPerSecond:
        return m.achieved_bytes_per_second;
      case SummaryMetric::NetworkPowerW:
        return m.network_power_w;
      case SummaryMetric::TokenWaitNs:
        return m.token_wait_ns;
      case SummaryMetric::Count:
        break;
    }
    sim::panic("SummarySink: unknown metric");
}

constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(SummaryMetric::Count);

} // namespace

double
tCritical95(std::size_t df)
{
    // Two-sided 0.05 critical values of Student's t, df = 1..30.
    static constexpr double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

const char *
SummarySink::header()
{
    return "workload,config,override,replicates,failed,"
           "avg_latency_ns_mean,avg_latency_ns_stddev,"
           "avg_latency_ns_ci95,avg_latency_ns_min,avg_latency_ns_max,"
           "p95_latency_ns_mean,p95_latency_ns_stddev,"
           "p95_latency_ns_ci95,p95_latency_ns_min,p95_latency_ns_max,"
           "achieved_bytes_per_second_mean,"
           "achieved_bytes_per_second_stddev,"
           "achieved_bytes_per_second_ci95,"
           "achieved_bytes_per_second_min,"
           "achieved_bytes_per_second_max,"
           "network_power_w_mean,network_power_w_stddev,"
           "network_power_w_ci95,network_power_w_min,"
           "network_power_w_max,"
           "token_wait_ns_mean,token_wait_ns_stddev,token_wait_ns_ci95,"
           "token_wait_ns_min,token_wait_ns_max";
}

void
SummarySink::begin(const CampaignSpec &spec, std::size_t)
{
    _configs = spec.configs.size();
    _overrides = spec.overrides.empty() ? 1 : spec.overrides.size();
    const std::size_t seeds =
        spec.seeds.empty() ? 1 : spec.seeds.size();
    _cells.assign(spec.workloads.size() * _configs * _overrides,
                  CellAccumulator{});
    for (CellAccumulator &cell : _cells)
        cell.seen_seeds.assign(seeds, false);
    _summaries.clear();
}

void
SummarySink::consume(const RunRecord &record)
{
    const std::size_t at =
        (record.workload_index * _configs + record.config_index) *
            _overrides +
        record.override_index;
    if (at >= _cells.size() ||
        record.seed_index >= _cells[at].seen_seeds.size())
        sim::panic("SummarySink: record indices outside the campaign "
                   "grid announced by begin()");
    CellAccumulator &acc = _cells[at];
    if (acc.seen_seeds[record.seed_index])
        sim::panic("SummarySink: duplicate record for cell " +
                   record.workload + "/" + record.config +
                   " seed replicate " +
                   std::to_string(record.seed_index));
    acc.seen_seeds[record.seed_index] = true;

    if (!acc.touched) {
        acc.touched = true;
        acc.cell.workload_index = record.workload_index;
        acc.cell.config_index = record.config_index;
        acc.cell.override_index = record.override_index;
        acc.cell.workload = record.workload;
        acc.cell.config = record.config;
        acc.cell.override_label = record.override_label;
    }
    if (!record.ok) {
        ++acc.cell.failed;
        return;
    }
    ++acc.cell.replicates;
    for (std::size_t metric = 0; metric < kMetricCount; ++metric)
        acc.stats[metric].sample(metricValue(
            record.metrics, static_cast<SummaryMetric>(metric)));
}

void
SummarySink::end()
{
    if (_os)
        *_os << header() << "\n";
    for (CellAccumulator &acc : _cells) {
        if (!acc.touched)
            continue; // No record reached this cell.
        for (std::size_t metric = 0; metric < kMetricCount; ++metric) {
            const stats::RunningStats &stats = acc.stats[metric];
            MetricSummary &summary = acc.cell.metrics[metric];
            summary.mean = stats.mean();
            summary.stddev = stats.stddev();
            summary.ci95 =
                stats.count() >= 2
                    ? tCritical95(stats.count() - 1) * summary.stddev /
                          std::sqrt(static_cast<double>(stats.count()))
                    : 0.0;
            summary.min = stats.min();
            summary.max = stats.max();
        }
        if (_os) {
            *_os << csvEscape(acc.cell.workload) << ','
                 << csvEscape(acc.cell.config) << ','
                 << csvEscape(acc.cell.override_label) << ','
                 << acc.cell.replicates << ',' << acc.cell.failed;
            for (std::size_t metric = 0; metric < kMetricCount;
                 ++metric) {
                const MetricSummary &summary = acc.cell.metrics[metric];
                *_os << ',' << formatShortestDouble(summary.mean) << ','
                     << formatShortestDouble(summary.stddev) << ','
                     << formatShortestDouble(summary.ci95) << ','
                     << formatShortestDouble(summary.min) << ','
                     << formatShortestDouble(summary.max);
            }
            *_os << "\n";
        }
        _summaries.push_back(acc.cell);
    }
    if (_os)
        _os->flush();
}

} // namespace corona::campaign
