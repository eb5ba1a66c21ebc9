#include "corona/env.hh"

#include <cstdlib>

#include "corona/simulation.hh"
#include "sim/logging.hh"

namespace corona::core::env {

namespace {

/** The variable's value, or nullopt when unset. */
std::optional<std::string>
lookup(const char *name)
{
    const char *value = std::getenv(name);
    if (!value)
        return std::nullopt;
    return std::string(value);
}

} // namespace

bool
isSet(const char *name)
{
    return std::getenv(name) != nullptr;
}

std::optional<std::uint64_t>
positiveCount(const char *name)
{
    const auto text = lookup(name);
    if (!text)
        return std::nullopt;
    const auto value = parsePositiveCount(*text);
    if (!value)
        sim::fatal(std::string(name) +
                   " must be a strictly positive decimal integer "
                   "within uint64 range, got \"" +
                   *text + "\"");
    return value;
}

std::optional<std::string>
nonEmpty(const char *name)
{
    const auto text = lookup(name);
    if (!text)
        return std::nullopt;
    if (text->empty())
        sim::fatal(std::string(name) +
                   " is set but empty — unset it or give it a value");
    return text;
}

} // namespace corona::core::env
