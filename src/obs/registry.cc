#include "obs/registry.hh"

#include <charconv>
#include <ostream>

#include "sim/logging.hh"

namespace corona::obs {

namespace {

bool
validPathChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/';
}

bool
validPath(const std::string &path)
{
    if (path.empty() || path.front() == '/' || path.back() == '/')
        return false;
    char prev = 0;
    for (const char c : path) {
        if (!validPathChar(c))
            return false;
        if (c == '/' && prev == '/')
            return false;
        prev = c;
    }
    return true;
}

} // namespace

std::string
formatValue(double value)
{
    char buffer[64];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer),
                                         value);
    if (ec != std::errc{})
        sim::panic("obs::formatValue: to_chars failed");
    return std::string(buffer, end);
}

void
Registry::add(std::string path, std::function<double()> read)
{
    if (!validPath(path))
        sim::fatal("obs::Registry: malformed probe path \"" + path +
                   "\" (slash-separated lowercase [a-z0-9_] segments)");
    if (path.size() > maxProbePathBytes)
        sim::fatal("obs::Registry: probe path \"" + path + "\" is " +
                   std::to_string(path.size()) + " bytes, over the " +
                   std::to_string(maxProbePathBytes) + "-byte limit");
    if (!read)
        sim::fatal("obs::Registry: null read function for \"" + path +
                   "\"");
    if (!_paths.insert(path).second)
        sim::fatal("obs::Registry: duplicate probe path \"" + path +
                   "\"");
    _probes.push_back(Probe{std::move(path), std::move(read)});
}

void
Registry::addStats(const std::string &path,
                   const stats::RunningStats &stats)
{
    add(path + "/count",
        [&stats] { return static_cast<double>(stats.count()); });
    add(path + "/mean", [&stats] { return stats.mean(); });
    add(path + "/min", [&stats] { return stats.min(); });
    add(path + "/max", [&stats] { return stats.max(); });
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    out.reserve(_probes.size());
    for (const Probe &probe : _probes)
        out.push_back(probe.path);
    return out;
}

std::vector<double>
Registry::read() const
{
    std::vector<double> values;
    values.reserve(_probes.size());
    for (const Probe &probe : _probes)
        values.push_back(probe.read());
    return values;
}

void
Registry::writeSnapshotCsv(std::ostream &os) const
{
    os << "path,value\n";
    for (const Probe &probe : _probes)
        os << probe.path << ',' << formatValue(probe.read()) << '\n';
}

void
Registry::clear()
{
    _probes.clear();
    _paths.clear();
}

} // namespace corona::obs
