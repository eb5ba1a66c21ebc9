/**
 * @file
 * The fresh-context reference for a campaign's records.
 *
 * The campaign runner leases every cell's context and workload, reset,
 * from its workers' pools. writeFreshRecords() runs every cell of a
 * grid on a context and a workload built for it alone
 * (core::runExperiment(config, ...)), so a test can hold the runner's
 * sink and checkpoint bytes to bytes no pool touched.
 */

#ifndef CORONA_TESTS_FRESH_RUNS_HH
#define CORONA_TESTS_FRESH_RUNS_HH

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/simulation.hh"

namespace corona::test {

/** Run every cell of @p spec on a fresh context and feed the
 * records to @p sink in run-index order, as the runner feeds its
 * own. */
inline void
writeFreshRecords(const campaign::CampaignSpec &spec,
                  campaign::ResultSink &sink)
{
    const std::vector<campaign::RunPlan> plans = campaign::expand(spec);
    sink.begin(spec, plans.size());
    for (const campaign::RunPlan &plan : plans) {
        campaign::RunRecord record = campaign::recordFor(plan);
        const std::unique_ptr<workload::Workload> workload =
            plan.make_workload();
        record.metrics =
            core::runExperiment(plan.system, *workload, plan.params);
        sink.consume(record);
    }
    sink.end();
}

/** The CSV sink bytes of @p spec's fresh records. */
inline std::string
freshCsv(const campaign::CampaignSpec &spec)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    writeFreshRecords(spec, sink);
    return csv.str();
}

} // namespace corona::test

#endif // CORONA_TESTS_FRESH_RUNS_HH
