/**
 * @file
 * Logging and error-reporting helpers in the gem5 style.
 *
 * fatal() reports user-correctable configuration errors; panic() reports
 * internal invariant violations (model bugs). Both throw typed exceptions
 * rather than aborting so that tests can assert on them.
 */

#ifndef CORONA_SIM_LOGGING_HH
#define CORONA_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace corona::sim {

/** Thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by panic(): an internal model invariant violation. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Report a configuration error the user can fix. */
[[noreturn]] void fatal(const std::string &message);

/** Report an internal invariant violation (a model bug). */
[[noreturn]] void panic(const std::string &message);

/** Emit a non-fatal warning to stderr (at most once per unique text). */
void warn(const std::string &message);

} // namespace corona::sim

#endif // CORONA_SIM_LOGGING_HH
