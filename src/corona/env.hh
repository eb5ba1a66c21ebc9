/**
 * @file
 * Strict environment-variable access.
 *
 * Every CORONA_* variable flows through these helpers so a typo is a
 * uniform fatal diagnostic instead of a silently ignored setting.
 * A scenario file is the whole description of a run; no variable
 * duplicates one of its keys. Three remain: CORONA_JOBS, the worker
 * count that threads = 0 resolves to, and the launcher's worker
 * contract CORONA_SHARD / CORONA_CHECKPOINT, which only corona-run
 * reads (campaign::applyWorkerEnvironment).
 */

#ifndef CORONA_CORONA_ENV_HH
#define CORONA_CORONA_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace corona::core::env {

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

} // namespace corona::core::env

#endif // CORONA_CORONA_ENV_HH
