/**
 * @file
 * Detailed per-run reporting.
 *
 * RunMetrics carries the headline figures the paper plots; RunReport
 * digs into the system after a run for the operational detail a
 * simulator user needs: per-cluster memory-controller load balance,
 * MSHR pressure, crossbar token statistics, and the latency
 * distribution.
 */

#ifndef CORONA_CORONA_REPORT_HH
#define CORONA_CORONA_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "corona/metrics.hh"
#include "corona/system.hh"

namespace corona::core {

/** Per-cluster operational statistics. */
struct ClusterReport
{
    topology::ClusterId cluster;
    std::uint64_t mc_accesses;
    std::uint64_t mc_bytes;
    double mc_mean_service_ns;
    std::size_t mc_peak_queue;
    std::uint64_t mshr_coalesced;
    std::uint64_t mshr_full_stalls;
    std::uint64_t network_requests;
    std::uint64_t local_requests;
};

/** Whole-run report. */
struct RunReport
{
    RunMetrics metrics;
    std::vector<ClusterReport> clusters;

    /** Ratio of the busiest MC's accesses to the mean (load skew). */
    double mcLoadSkew() const;

    /** Secondary misses coalesced onto in-flight MSHR entries, summed
     * over clusters: equals metrics.requests_coalesced. */
    std::uint64_t totalCoalesced() const;

    /** Render a human-readable summary. */
    void print(std::ostream &os, std::size_t top_clusters = 4) const;
};

/** Collect a report from a finished simulation's system. */
RunReport collectReport(const RunMetrics &metrics, CoronaSystem &system);

} // namespace corona::core

#endif // CORONA_CORONA_REPORT_HH
