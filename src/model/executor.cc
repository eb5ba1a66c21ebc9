#include "model/executor.hh"

#include <cmath>

#include "model/queueing.hh"
#include "noc/message.hh"
#include "sim/types.hh"

namespace corona::model {

campaign::RunRecord
executePlanAnalytically(const campaign::RunPlan &plan,
                        const AnalyticModel &model,
                        const Calibration *calibration)
{
    campaign::RunRecord record = campaign::recordFor(plan);

    if (!knowsWorkload(plan.workload)) {
        record.ok = false;
        record.error = "model: no traffic descriptor for workload \"" +
                       plan.workload + "\"";
        record.metrics.workload = plan.workload;
        record.metrics.config = plan.config;
        return record;
    }

    const DesignPoint point = fromConfig(plan.system, plan.workload);
    Prediction prediction = model.evaluate(point);
    if (calibration)
        prediction =
            calibration->apply(prediction, plan.config, plan.workload);

    core::RunMetrics &m = record.metrics;
    m.config = plan.config;
    m.workload = plan.workload;
    m.requests_issued = plan.params.requests;
    m.requests_coalesced = 0;
    m.achieved_bytes_per_second = prediction.achieved_bytes_per_second;
    m.avg_latency_ns = prediction.avg_latency_ns;
    m.p95_latency_ns = prediction.p95_latency_ns;
    m.network_power_w = prediction.network_power_w;
    m.token_wait_ns = prediction.token_wait_ns;
    m.offered_bytes_per_second = prediction.offered_bytes_per_second;

    // Derived bookkeeping the sinks serialise: the time the modelled
    // run would span, and mesh hop traversals over that span.
    const double seconds =
        prediction.achieved_bytes_per_second > 0.0
            ? static_cast<double>(plan.params.requests) *
                  noc::cacheLineBytes /
                  prediction.achieved_bytes_per_second
            : 0.0;
    m.elapsed = sim::secondsToTicks(seconds);
    m.hop_traversals = static_cast<std::uint64_t>(
        prediction.hop_traversals_per_second * seconds + 0.5);
    m.peak_mc_queue = static_cast<std::size_t>(
        std::ceil(md1QueueLength(prediction.bottleneck_utilization)));
    return record;
}

std::function<campaign::RunRecord(const campaign::RunPlan &)>
planExecutor(AnalyticModel model, Calibration calibration)
{
    return [model = std::move(model),
            calibration = std::move(calibration)](
               const campaign::RunPlan &plan) {
        return executePlanAnalytically(plan, model, &calibration);
    };
}

} // namespace corona::model
