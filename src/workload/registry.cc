#include "workload/registry.hh"

#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "topology/geometry.hh"
#include "workload/sharing.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace corona::workload {

namespace {

/** Everything a registered factory needs, resolved from knobs. */
struct ResolvedKnobs
{
    std::size_t clusters = 64;
    SyntheticParams synthetic{};
    SharingParams sharing{};
};

/** The generator kinds a knob row applies to. */
enum KnobKinds : unsigned
{
    Synthetic = 1,
    Splash = 2,
    Sharing = 4,
};

/** One workload knob: the generator kinds that take it, and how its
 * value sets the resolved parameters. A row that synthetic and
 * sharing generators share sets both parameter sets; each generator
 * reads only its own. */
struct KnobRow
{
    const char *key;
    unsigned kinds;
    void (*apply)(ResolvedKnobs &resolved, const core::KnobValue &value);
};

constexpr KnobRow knobRows[] = {
    {"clusters", Synthetic | Splash | Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.clusters = static_cast<std::size_t>(core::expectClusters(v));
     }},
    {"mean_think", Synthetic | Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.synthetic.mean_think = r.sharing.mean_think =
             core::expectPositive(v);
     }},
    {"write_fraction", Synthetic | Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.synthetic.write_fraction = r.sharing.write_fraction =
             core::expectFraction(v);
     }},
    {"threads_per_cluster", Synthetic | Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.synthetic.threads_per_cluster = r.sharing.threads_per_cluster =
             static_cast<std::size_t>(core::expectPositive(v));
     }},
    {"hot_cluster", Synthetic,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.synthetic.hot_cluster =
             static_cast<topology::ClusterId>(core::expectUnsigned(v));
     }},
    {"lines", Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.sharing.lines = static_cast<std::size_t>(core::expectPositive(v));
     }},
    {"phase_length", Sharing,
     [](ResolvedKnobs &r, const core::KnobValue &v) {
         r.sharing.phase_length =
             static_cast<std::size_t>(core::expectPositive(v));
     }},
};

ResolvedKnobs
resolveKnobs(const RegistryEntry &entry,
             const std::vector<WorkloadKnob> &knobs)
{
    const unsigned kind =
        entry.synthetic ? Synthetic : entry.sharing ? Sharing : Splash;
    const auto accepts = [kind](const KnobRow &row) {
        return (row.kinds & kind) != 0;
    };
    const std::string family = "workload \"" + entry.name + "\"";
    ResolvedKnobs resolved;
    for (const auto &[key, value] : knobs)
        core::applyKnob(knobRows, accepts, family, resolved,
                        key, value);
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
            {"Uniform", true},
            {"Hot Spot", true},
            {"Tornado", true},
            {"Transpose", true},
        };
        for (const SplashParams &params : splashSuite())
            all.push_back({params.name, false});
        // Sharing patterns (coherent front end) follow the suite.
        all.push_back({"Migratory", false, true});
        all.push_back({"Producer-Consumer", false, true});
        all.push_back({"False Sharing", false, true});
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
