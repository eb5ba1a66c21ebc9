/**
 * @file
 * Strict environment-variable access.
 *
 * Every CORONA_* variable flows through these helpers so a typo is a
 * uniform fatal diagnostic instead of a silently ignored setting.
 * Scenario files are the primary way to describe an experiment;
 * environment variables are overrides layered on top, and these
 * helpers are the only sanctioned way to read them.
 */

#ifndef CORONA_CORONA_ENV_HH
#define CORONA_CORONA_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace corona::core::env {

/** Raw lookup: the variable's value, or nullopt when unset. */
std::optional<std::string> lookup(const char *name);

/** Is the variable present in the environment (even if empty)? */
bool isSet(const char *name);

/**
 * A strictly positive decimal count (digits only, non-zero, within
 * uint64 range). Unset returns nullopt; set-but-malformed is fatal
 * with a uniform "$NAME must be ..." diagnostic naming the variable
 * and the offending text.
 */
std::optional<std::uint64_t> positiveCount(const char *name);

/**
 * A non-empty string value (paths, shard designators). Unset returns
 * nullopt; set-but-empty is fatal — an empty path is always a
 * mistake, not a request.
 */
std::optional<std::string> nonEmpty(const char *name);

/**
 * A variable @p who cannot run without (e.g. a launcher-spawned
 * worker's CORONA_SHARD). Fatal when unset or empty, naming both the
 * variable and the consumer so the diagnostic explains who expected
 * the variable to exist.
 */
std::string require(const char *name, const std::string &who);

} // namespace corona::core::env

#endif // CORONA_CORONA_ENV_HH
