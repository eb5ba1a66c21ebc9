/**
 * @file
 * Knob tables: the named SystemConfig points, one table of
 * {key, apply} rows per knob family, and the strict value parsers
 * every knob and scenario key shares.
 *
 * Scenario files describe experiments as text, so every tunable the
 * engine exposes must be reachable by (name, value) pairs instead of
 * C++ closures. Each knob is declared once, as one row of its
 * family's table: the SystemConfig knobs a config expression may set
 * (clusters, memory_bandwidth_scale, token_node_pause, ...) and the
 * SimParams knobs an override may set (requests, warmup_requests,
 * seed) live here; the workload knobs are a table of the same shape
 * in workload/registry.cc. applyKnob() searches a table, and its
 * "valid knobs" fatal lists the rows in table order. Appliers are
 * strict — an unknown knob or a malformed value is fatal, never
 * silently ignored.
 */

#ifndef CORONA_CORONA_KNOBS_HH
#define CORONA_CORONA_KNOBS_HH

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "corona/config.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"

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

// ------------------------------------------------- checked values

/** The text of a knob or scenario key, with the prefix its value
 * errors take: "config knob: knob clusters ",
 * "scenario: line 4: requests ". */
struct KnobValue
{
    std::string what;
    const std::string &text;
};

/** parseUnsigned, else fatal "<what>expects an unsigned decimal
 * integer, got \"<text>\"" (every value error takes that form). */
std::uint64_t expectUnsigned(const KnobValue &value);

/** parsePositiveCount, else "a strictly positive decimal integer". */
std::uint64_t expectPositive(const KnobValue &value);

/** expectPositive, and a perfect square (topology::Geometry needs a
 * square grid), else "a perfect-square cluster count". */
std::uint64_t expectClusters(const KnobValue &value);

/** A number in [0, 1], else "a fraction in [0, 1]". */
double expectFraction(const KnobValue &value);

// ---------------------------------------------------- knob tables

/** One knob of a family: its key, and how its value sets Target. */
template <typename Target>
struct Knob
{
    const char *key;
    void (*apply)(Target &target, const KnobValue &value);
};

/**
 * Set knob @p key of @p target to @p value through the row of
 * @p rows with that key that @p accepts. The row's value errors read
 * "<family>: knob <key> expects ..."; a key no accepted row has is
 * fatal "<family>: unknown knob \"<key>\" (valid knobs: ...)", listing
 * the accepted rows in table order.
 */
template <typename Rows, typename Accepts, typename Target>
void
applyKnob(const Rows &rows, Accepts accepts, const std::string &family,
          Target &target, const std::string &key,
          const std::string &value)
{
    for (const auto &row : rows) {
        if (accepts(row) && key == row.key) {
            row.apply(target, KnobValue{family + ": knob " + key + " ",
                                        value});
            return;
        }
    }
    std::string valid;
    for (const auto &row : rows) {
        if (!accepts(row))
            continue;
        if (!valid.empty())
            valid += ", ";
        valid += row.key;
    }
    sim::fatal(family + ": unknown knob \"" + key +
               "\" (valid knobs: " + valid + ")");
}

// ------------------------------------------------------- SimParams

/** Apply one SimParams knob; fatal on an unknown key or malformed
 * value. */
void applySimParamsKnob(SimParams &params, const std::string &key,
                        const std::string &value);

// ---------------------------------------------- SystemConfig registry

/** Names of the five paper configurations, Figure 8 legend order. */
const std::vector<std::string> &paperConfigNames();

/** The five paper configurations, built from paperConfigNames(). */
std::vector<SystemConfig> paperConfigs();

/**
 * Build the named configuration point. Accepts the "Net/Mem" names
 * ("XBar/OCM", "HMesh/ECM", "Ideal/OCM", ...); fatal on anything
 * else. The "paper" group alias is handled by callers that accept
 * config lists (it expands to five configs, not one).
 */
SystemConfig namedConfig(const std::string &name);

/** The SystemConfig knobs a config expression may set, one row each. */
std::span<const Knob<SystemConfig>> configKnobs();

/** Apply one SystemConfig knob; fatal on an unknown key or malformed
 * value. */
void applyConfigKnob(SystemConfig &config, const std::string &key,
                     const std::string &value);

} // namespace corona::core

#endif // CORONA_CORONA_KNOBS_HH
