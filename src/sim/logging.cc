#include "sim/logging.hh"

#include <iostream>
#include <mutex>
#include <unordered_set>

namespace corona::sim {

namespace {

std::mutex logMutex;
std::unordered_set<std::string> warnedOnce;

} // namespace

void
fatal(const std::string &message)
{
    throw FatalError("fatal: " + message);
}

void
panic(const std::string &message)
{
    throw PanicError("panic: " + message);
}

void
warn(const std::string &message)
{
    std::scoped_lock lock(logMutex);
    if (warnedOnce.insert(message).second)
        std::cerr << "warn: " << message << "\n";
}

} // namespace corona::sim
