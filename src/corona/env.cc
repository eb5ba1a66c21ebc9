#include "corona/env.hh"

#include <cstdlib>
#include <string>

#include "corona/simulation.hh"
#include "sim/logging.hh"

namespace corona::core::env {

std::optional<std::uint64_t>
positiveCount(const char *name)
{
    const char *text = std::getenv(name);
    if (!text)
        return std::nullopt;
    const auto value = parsePositiveCount(text);
    if (!value)
        sim::fatal(std::string(name) +
                   " must be a strictly positive decimal integer "
                   "within uint64 range, got \"" +
                   text + "\"");
    return value;
}

} // namespace corona::core::env
