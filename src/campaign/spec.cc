#include "campaign/spec.hh"

#include <limits>
#include <string>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace corona::campaign {

namespace {

constexpr std::uint64_t goldenGamma = 0x9E3779B97F4A7C15ull;

/** Axis labels must be unique: two entries sharing a name would
 * silently alias each other's checkpoint fingerprint rows and
 * last-wins-merge each other's results. */
void
checkUniqueLabels(const std::string &campaign, const char *axis,
                  const std::vector<std::string> &labels)
{
    std::unordered_set<std::string> seen;
    for (const std::string &label : labels) {
        if (!seen.insert(label).second)
            sim::fatal("campaign \"" + campaign + "\": duplicate " +
                       axis + " \"" + label +
                       "\" — label axis entries uniquely (e.g. set "
                       "SystemConfig::label or an override label), "
                       "or checkpoint rows and merged results would "
                       "alias");
    }
}

} // namespace

void
checkBudget(const CampaignSpec &spec, const ParamsOverride &override_spec,
            const core::SimParams &params)
{
    if (params.warmup_requests <=
        std::numeric_limits<std::uint64_t>::max() - params.requests)
        return;
    sim::fatal("campaign \"" + spec.name + "\"" +
               (override_spec.label.empty()
                    ? std::string()
                    : ", override \"" + override_spec.label + "\"") +
               ": warmup_requests " +
               std::to_string(params.warmup_requests) + " plus requests " +
               std::to_string(params.requests) +
               " overflows the 64-bit run budget");
}

void
validateAxisLabels(const CampaignSpec &spec)
{
    std::vector<std::string> labels;
    for (const auto &workload : spec.workloads)
        labels.push_back(workload.name);
    checkUniqueLabels(spec.name, "workload", labels);
    labels.clear();
    for (const auto &config : spec.configs)
        labels.push_back(config.name());
    checkUniqueLabels(spec.name, "config", labels);
    labels.clear();
    for (const auto &override_spec : spec.overrides)
        labels.push_back(override_spec.label);
    checkUniqueLabels(spec.name, "override label", labels);
}

std::size_t
CampaignSpec::totalRuns() const
{
    const std::size_t seed_count = seeds.empty() ? 1 : seeds.size();
    const std::size_t override_count =
        overrides.empty() ? 1 : overrides.size();
    return workloads.size() * configs.size() * seed_count *
           override_count;
}

RunRecord
recordFor(const RunPlan &plan)
{
    RunRecord record;
    record.index = plan.index;
    record.workload_index = plan.workload_index;
    record.config_index = plan.config_index;
    record.seed_index = plan.seed_index;
    record.override_index = plan.override_index;
    record.workload = plan.workload;
    record.config = plan.config;
    record.override_label = plan.override_label;
    record.seed = plan.params.seed;
    return record;
}

std::uint64_t
deriveRunSeed(std::uint64_t campaign_seed, std::uint64_t seed_salt,
              std::size_t index)
{
    // The index-th output of a splitmix64 stream keyed by the salted
    // campaign seed: independent of execution order and thread count.
    const std::uint64_t stream =
        sim::splitmix64(campaign_seed) ^ sim::splitmix64(seed_salt);
    return sim::splitmix64(stream +
                           static_cast<std::uint64_t>(index) *
                               goldenGamma);
}

std::vector<RunPlan>
expand(const CampaignSpec &spec)
{
    if (spec.workloads.empty())
        sim::fatal("campaign \"" + spec.name + "\": no workloads");
    if (spec.configs.empty())
        sim::fatal("campaign \"" + spec.name + "\": no configs");
    for (const auto &workload : spec.workloads) {
        if (!workload.make)
            sim::fatal("campaign \"" + spec.name + "\": workload \"" +
                       workload.name + "\" has no factory");
    }

    validateAxisLabels(spec);

    const std::vector<std::uint64_t> seeds =
        spec.seeds.empty() ? std::vector<std::uint64_t>{0} : spec.seeds;
    const std::vector<ParamsOverride> overrides =
        spec.overrides.empty()
            ? std::vector<ParamsOverride>{{"", nullptr}}
            : spec.overrides;

    std::vector<RunPlan> plans;
    plans.reserve(spec.workloads.size() * spec.configs.size() *
                  seeds.size() * overrides.size());

    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        for (std::size_t c = 0; c < spec.configs.size(); ++c) {
            for (std::size_t s = 0; s < seeds.size(); ++s) {
                for (std::size_t o = 0; o < overrides.size(); ++o) {
                    RunPlan plan;
                    plan.index = plans.size();
                    plan.workload_index = w;
                    plan.config_index = c;
                    plan.seed_index = s;
                    plan.override_index = o;
                    plan.workload = spec.workloads[w].name;
                    plan.config = spec.configs[c].name();
                    plan.override_label = overrides[o].label;
                    plan.seed_salt = seeds[s];
                    plan.system = spec.configs[c];
                    plan.make_workload = spec.workloads[w].make;
                    plan.params = spec.base;
                    if (overrides[o].apply)
                        overrides[o].apply(plan.params);
                    checkBudget(spec, overrides[o], plan.params);
                    if (spec.seed_policy == SeedPolicy::Derived) {
                        plan.params.seed = deriveRunSeed(
                            spec.campaign_seed, seeds[s], plan.index);
                    }
                    plans.push_back(std::move(plan));
                }
            }
        }
    }
    return plans;
}

} // namespace corona::campaign
