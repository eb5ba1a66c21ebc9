/**
 * @file
 * Central knob tables: named SystemConfig points and data-driven
 * SimParams / SystemConfig mutation.
 *
 * Scenario files describe experiments as text, so every tunable the
 * engine exposes must be reachable by (name, value) pairs instead of
 * C++ closures. This header is the single source of truth for those
 * names: the named-configuration registry ("XBar/OCM", "paper", ...),
 * the SystemConfig knob table (clusters, memory_bandwidth_scale,
 * token_node_pause, ...), and the SimParams knob table (requests,
 * warmup_requests, seed). Appliers are strict — an unknown knob or a
 * malformed value is fatal, never silently ignored — and
 * configKnobExpression() inverts the table so any knobbed config can
 * be serialised back to a text expression that resolves to the same
 * configuration.
 */

#ifndef CORONA_CORONA_KNOBS_HH
#define CORONA_CORONA_KNOBS_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corona/config.hh"
#include "corona/simulation.hh"

namespace corona::core {

/** Strict decimal uint64 (leading/trailing garbage rejected; zero
 * allowed, unlike parsePositiveCount). */
std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/** Strict positive decimal count: parseUnsigned, and non-zero. */
std::optional<std::uint64_t> parsePositiveCount(std::string_view text);

/** Strict finite double (full-string match, no inf/nan). */
std::optional<double> parseStrictDouble(std::string_view text);

/** Strict boolean: on/off, true/false, 1/0. */
std::optional<bool> parseOnOff(std::string_view text);

/** One documented knob (for --help texts and the README schema). */
struct KnobInfo
{
    std::string key;
    std::string help;
};

// ------------------------------------------------------- SimParams

/** The SimParams knobs scenario overrides may set. */
const std::vector<KnobInfo> &simParamsKnobs();

/** Apply one knob; fatal on an unknown key or malformed value. */
void applySimParamsKnob(SimParams &params, const std::string &key,
                        const std::string &value);

// ---------------------------------------------- SystemConfig registry

/** Names of the five paper configurations, Figure 8 legend order. */
const std::vector<std::string> &paperConfigNames();

/**
 * Build the named configuration point. Accepts the "Net/Mem" names
 * ("XBar/OCM", "HMesh/ECM", "Ideal/OCM", ...); fatal on anything
 * else. The "paper" group alias is handled by callers that accept
 * config lists (it expands to five configs, not one).
 */
SystemConfig namedConfig(const std::string &name);

/** The SystemConfig knobs config expressions may set. */
const std::vector<KnobInfo> &configKnobs();

/** Apply one knob; fatal on an unknown key or malformed value. */
void applyConfigKnob(SystemConfig &config, const std::string &key,
                     const std::string &value);

/**
 * Serialise @p config as a resolvable text expression:
 * "Net/Mem knob=value ..." listing exactly the knobs that differ from
 * makeConfig(network, memory) defaults, label last (quoted when it
 * contains spaces). Resolving the expression reproduces every
 * knob-covered field, so tools can ship a programmatically built
 * config (e.g. a design-space point) to a worker as text.
 */
std::string configKnobExpression(const SystemConfig &config);

} // namespace corona::core

#endif // CORONA_CORONA_KNOBS_HH
