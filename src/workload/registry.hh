/**
 * @file
 * Named workload registry.
 *
 * Scenario files name workloads as text, so every generator a
 * campaign can drive must be reachable by (name, knob=value...)
 * instead of a C++ factory closure. The registry holds the paper's 15
 * Table-3 generators — the four synthetic patterns and the eleven
 * SPLASH-2 miss-stream models — in Figure 8's x-axis order, each
 * taking the rows of one knob table that apply to its kind
 * (cluster-count scaling for off-nominal design points, think-time /
 * write-mix / topology knobs for the synthetic and sharing
 * patterns). Scenarios and tests alike build a named workload with
 * registryFactory(name). Three sharing-pattern generators (Migratory,
 * Producer-Consumer, False Sharing) follow the suite; they exercise
 * the coherent front end and are addressable by name but excluded
 * from the "all" alias.
 */

#ifndef CORONA_WORKLOAD_REGISTRY_HH
#define CORONA_WORKLOAD_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.hh"

namespace corona::workload {

/** One (knob, value) pair of a workload expression. */
using WorkloadKnob = std::pair<std::string, std::string>;

/** One named generator. */
struct RegistryEntry
{
    std::string name;
    bool synthetic = false;
    /** Sharing-pattern generator (coherent-front-end exerciser). */
    bool sharing = false;
};

/** The 15 Table-3 generators (Figure 8 x-axis order) followed by the
 * three sharing-pattern generators. */
const std::vector<RegistryEntry> &registry();

/** The registry row for @p name; fatal (listing the registry) when
 * the name is unknown. */
const RegistryEntry &registryEntry(const std::string &name);

/**
 * Validate @p knobs against @p name's knob set — fatal on an unknown
 * name, unknown knob, or malformed value. Called eagerly at scenario
 * resolve time so a bad expression dies before any worker thread
 * invokes the factory.
 */
void validateWorkloadKnobs(const std::string &name,
                           const std::vector<WorkloadKnob> &knobs);

/**
 * A factory for the named generator with @p knobs applied. Validates
 * eagerly (fatal as validateWorkloadKnobs); the returned function is
 * self-contained and thread-safe, returning a fresh workload per
 * call — exactly the contract campaign::WorkloadSpec::make requires.
 */
std::function<std::unique_ptr<Workload>()>
registryFactory(const std::string &name,
                const std::vector<WorkloadKnob> &knobs = {});

} // namespace corona::workload

#endif // CORONA_WORKLOAD_REGISTRY_HH
