#include "workload/registry.hh"

#include <cmath>

#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "topology/geometry.hh"
#include "workload/sharing.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace corona::workload {

namespace {

constexpr const char *syntheticKnobsHelp =
    "clusters, mean_think, write_fraction, threads_per_cluster, "
    "hot_cluster";
constexpr const char *splashKnobsHelp = "clusters";
constexpr const char *sharingKnobsHelp =
    "clusters, mean_think, write_fraction, threads_per_cluster, lines, "
    "phase_length";

[[noreturn]] void
badKnobValue(const std::string &name, const std::string &key,
             const std::string &value, const char *expected)
{
    sim::fatal("workload \"" + name + "\": knob " + key + " expects " +
               expected + ", got \"" + value + "\"");
}

std::uint64_t
knobPositive(const std::string &name, const WorkloadKnob &knob)
{
    const auto parsed = core::parsePositiveCount(knob.second);
    if (!parsed)
        badKnobValue(name, knob.first, knob.second,
                     "a strictly positive decimal integer");
    return *parsed;
}

std::uint64_t
knobUnsigned(const std::string &name, const WorkloadKnob &knob)
{
    const auto parsed = core::parseUnsigned(knob.second);
    if (!parsed)
        badKnobValue(name, knob.first, knob.second,
                     "an unsigned decimal integer");
    return *parsed;
}

double
knobFraction(const std::string &name, const WorkloadKnob &knob)
{
    const auto parsed = core::parseStrictDouble(knob.second);
    if (!parsed || *parsed < 0.0 || *parsed > 1.0)
        badKnobValue(name, knob.first, knob.second,
                     "a fraction in [0, 1]");
    return *parsed;
}

/** Everything a registered factory needs, resolved from knobs. */
struct ResolvedKnobs
{
    std::size_t clusters = 64;
    SyntheticParams synthetic{};
    SharingParams sharing{};
};

ResolvedKnobs
resolveKnobs(const RegistryEntry &entry,
             const std::vector<WorkloadKnob> &knobs)
{
    ResolvedKnobs resolved;
    for (const WorkloadKnob &knob : knobs) {
        if (knob.first == "clusters") {
            const std::uint64_t clusters =
                knobPositive(entry.name, knob);
            // topology::Geometry requires a square grid; reject here
            // so a bad expression dies at resolve time, not on a
            // worker thread mid-campaign.
            const auto radix = static_cast<std::uint64_t>(
                std::lround(std::sqrt(static_cast<double>(clusters))));
            if (radix * radix != clusters)
                badKnobValue(entry.name, knob.first, knob.second,
                             "a perfect-square cluster count");
            resolved.clusters = static_cast<std::size_t>(clusters);
            continue;
        }
        if (entry.synthetic) {
            if (knob.first == "mean_think") {
                resolved.synthetic.mean_think =
                    knobPositive(entry.name, knob);
                continue;
            }
            if (knob.first == "write_fraction") {
                resolved.synthetic.write_fraction =
                    knobFraction(entry.name, knob);
                continue;
            }
            if (knob.first == "threads_per_cluster") {
                resolved.synthetic.threads_per_cluster =
                    static_cast<std::size_t>(
                        knobPositive(entry.name, knob));
                continue;
            }
            if (knob.first == "hot_cluster") {
                resolved.synthetic.hot_cluster =
                    static_cast<topology::ClusterId>(
                        knobUnsigned(entry.name, knob));
                continue;
            }
        }
        if (entry.sharing) {
            if (knob.first == "mean_think") {
                resolved.sharing.mean_think =
                    knobPositive(entry.name, knob);
                continue;
            }
            if (knob.first == "write_fraction") {
                resolved.sharing.write_fraction =
                    knobFraction(entry.name, knob);
                continue;
            }
            if (knob.first == "threads_per_cluster") {
                resolved.sharing.threads_per_cluster =
                    static_cast<std::size_t>(
                        knobPositive(entry.name, knob));
                continue;
            }
            if (knob.first == "lines") {
                resolved.sharing.lines = static_cast<std::size_t>(
                    knobPositive(entry.name, knob));
                continue;
            }
            if (knob.first == "phase_length") {
                resolved.sharing.phase_length =
                    static_cast<std::size_t>(
                        knobPositive(entry.name, knob));
                continue;
            }
        }
        sim::fatal("workload \"" + entry.name +
                   "\": unknown knob \"" + knob.first +
                   "\" (valid knobs: " + entry.knobs_help + ")");
    }
    return resolved;
}

Pattern
patternOf(const std::string &name)
{
    if (name == "Uniform")
        return Pattern::Uniform;
    if (name == "Hot Spot")
        return Pattern::HotSpot;
    if (name == "Tornado")
        return Pattern::Tornado;
    return Pattern::Transpose;
}

SharingPattern
sharingPatternOf(const std::string &name)
{
    if (name == "Migratory")
        return SharingPattern::Migratory;
    if (name == "Producer-Consumer")
        return SharingPattern::ProducerConsumer;
    return SharingPattern::FalseSharing;
}

} // namespace

const std::vector<RegistryEntry> &
registry()
{
    static const std::vector<RegistryEntry> entries = [] {
        std::vector<RegistryEntry> all = {
            {"Uniform", true, syntheticKnobsHelp},
            {"Hot Spot", true, syntheticKnobsHelp},
            {"Tornado", true, syntheticKnobsHelp},
            {"Transpose", true, syntheticKnobsHelp},
        };
        for (const SplashParams &params : splashSuite())
            all.push_back({params.name, false, splashKnobsHelp});
        // Sharing patterns (coherent front end) follow the suite.
        all.push_back({"Migratory", false, sharingKnobsHelp, true});
        all.push_back(
            {"Producer-Consumer", false, sharingKnobsHelp, true});
        all.push_back({"False Sharing", false, sharingKnobsHelp, true});
        return all;
    }();
    return entries;
}


const RegistryEntry &
registryEntry(const std::string &name)
{
    for (const RegistryEntry &entry : registry()) {
        if (entry.name == name)
            return entry;
    }
    std::string known;
    for (const RegistryEntry &entry : registry()) {
        if (!known.empty())
            known += ", ";
        known += entry.name;
    }
    sim::fatal("unknown workload \"" + name +
               "\" (registry: " + known +
               "; \"all\" expands to the full Table-3 suite)");
}

void
validateWorkloadKnobs(const std::string &name,
                      const std::vector<WorkloadKnob> &knobs)
{
    resolveKnobs(registryEntry(name), knobs);
}

std::function<std::unique_ptr<Workload>()>
registryFactory(const std::string &name,
                const std::vector<WorkloadKnob> &knobs)
{
    const RegistryEntry &entry = registryEntry(name);
    const ResolvedKnobs resolved = resolveKnobs(entry, knobs);
    if (entry.synthetic) {
        const Pattern pattern = patternOf(entry.name);
        const SyntheticParams params = resolved.synthetic;
        const std::size_t clusters = resolved.clusters;
        return [pattern, clusters, params] {
            return std::unique_ptr<Workload>(
                std::make_unique<SyntheticWorkload>(
                    pattern, topology::Geometry(clusters), params));
        };
    }
    if (entry.sharing) {
        const SharingPattern pattern = sharingPatternOf(entry.name);
        const SharingParams params = resolved.sharing;
        const std::size_t clusters = resolved.clusters;
        return [pattern, clusters, params] {
            return std::unique_ptr<Workload>(
                std::make_unique<SharingWorkload>(
                    pattern, topology::Geometry(clusters), params));
        };
    }
    // Validate the splash name eagerly too (it is registered, so
    // splashParams cannot fail here; the lookup keeps the factory
    // closure small).
    const SplashParams params = splashParams(entry.name);
    const std::size_t clusters = resolved.clusters;
    return [params, clusters] {
        return std::unique_ptr<Workload>(
            std::make_unique<SplashWorkload>(
                params, topology::Geometry(clusters)));
    };
}

} // namespace corona::workload
