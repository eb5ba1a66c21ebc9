/**
 * @file
 * Strict environment-variable access.
 *
 * A scenario file is the whole description of a run; no variable
 * duplicates one of its keys. One remains: CORONA_JOBS, the worker
 * count that threads = 0 resolves to. It is read through this helper
 * so a typo is a uniform fatal diagnostic instead of a silently
 * ignored setting.
 */

#ifndef CORONA_CORONA_ENV_HH
#define CORONA_CORONA_ENV_HH

#include <cstdint>
#include <optional>

namespace corona::core::env {

/**
 * A strictly positive decimal count (digits only, non-zero, within
 * uint64 range). Unset returns nullopt; set-but-malformed is fatal
 * with a uniform "$NAME must be ..." diagnostic naming the variable
 * and the offending text.
 */
std::optional<std::uint64_t> positiveCount(const char *name);

} // namespace corona::core::env

#endif // CORONA_CORONA_ENV_HH
