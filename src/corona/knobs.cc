#include "corona/knobs.hh"

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace corona::core {

namespace {

std::string
knobList(const std::vector<KnobInfo> &knobs)
{
    std::string names;
    for (const KnobInfo &knob : knobs) {
        if (!names.empty())
            names += ", ";
        names += knob.key;
    }
    return names;
}

[[noreturn]] void
badKnob(const char *what, const std::string &key,
        const std::vector<KnobInfo> &knobs)
{
    sim::fatal(std::string(what) + ": unknown knob \"" + key +
               "\" (valid knobs: " + knobList(knobs) + ")");
}

[[noreturn]] void
badValue(const char *what, const std::string &key,
         const std::string &value, const char *expected)
{
    sim::fatal(std::string(what) + ": knob " + key + " expects " +
               expected + ", got \"" + value + "\"");
}

std::uint64_t
knobUnsigned(const char *what, const std::string &key,
             const std::string &value)
{
    const auto parsed = parseUnsigned(value);
    if (!parsed)
        badValue(what, key, value, "an unsigned decimal integer");
    return *parsed;
}

std::uint64_t
knobPositive(const char *what, const std::string &key,
             const std::string &value)
{
    const auto parsed = parsePositiveCount(value);
    if (!parsed)
        badValue(what, key, value,
                 "a strictly positive decimal integer");
    return *parsed;
}

/** @p parsed, the value of knob @p key, checked to fit the
 * std::uint32_t field the knob sets. */
std::uint32_t
knobUint32(const char *what, const std::string &key,
           const std::string &value, std::uint64_t parsed)
{
    if (parsed > std::numeric_limits<std::uint32_t>::max())
        badValue(what, key, value, "a value of at most 4294967295");
    return static_cast<std::uint32_t>(parsed);
}

double
knobPositiveDouble(const char *what, const std::string &key,
                   const std::string &value)
{
    const auto parsed = parseStrictDouble(value);
    if (!parsed || *parsed <= 0.0)
        badValue(what, key, value, "a positive number");
    return *parsed;
}

/** Shortest round-trip decimal form (mirrors the campaign sinks'
 * formatShortestDouble; duplicated here so core stays below
 * campaign in the include order). */
std::string
shortestDouble(double value)
{
    char buffer[64];
    const auto res = std::to_chars(buffer, buffer + sizeof(buffer),
                                   value);
    return std::string(buffer, res.ptr);
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // Would overflow.
        value = value * 10 + digit;
    }
    return value;
}

std::optional<std::uint64_t>
parsePositiveCount(std::string_view text)
{
    const auto value = parseUnsigned(text);
    if (!value || *value == 0)
        return std::nullopt;
    return value;
}

std::optional<double>
parseStrictDouble(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    double value = 0.0;
    const auto res = std::from_chars(text.data(),
                                     text.data() + text.size(), value);
    if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
        return std::nullopt;
    if (!std::isfinite(value))
        return std::nullopt;
    return value;
}

std::optional<bool>
parseOnOff(std::string_view text)
{
    if (text == "on" || text == "true" || text == "1")
        return true;
    if (text == "off" || text == "false" || text == "0")
        return false;
    return std::nullopt;
}

// ------------------------------------------------------- SimParams

const std::vector<KnobInfo> &
simParamsKnobs()
{
    static const std::vector<KnobInfo> knobs = {
        {"requests", "primary misses to simulate (positive)"},
        {"warmup_requests",
         "primary misses issued before measurement starts"},
        {"seed", "base RNG seed"},
    };
    return knobs;
}

void
applySimParamsKnob(SimParams &params, const std::string &key,
                   const std::string &value)
{
    constexpr const char *what = "SimParams override";
    if (key == "requests")
        params.requests = knobPositive(what, key, value);
    else if (key == "warmup_requests")
        params.warmup_requests = knobUnsigned(what, key, value);
    else if (key == "seed")
        params.seed = knobUnsigned(what, key, value);
    else
        badKnob(what, key, simParamsKnobs());
}

// ---------------------------------------------- SystemConfig registry

namespace {

struct NamedPoint
{
    const char *name;
    NetworkKind network;
    MemoryKind memory;
};

constexpr NamedPoint namedPoints[] = {
    {"LMesh/ECM", NetworkKind::LMesh, MemoryKind::ECM},
    {"HMesh/ECM", NetworkKind::HMesh, MemoryKind::ECM},
    {"LMesh/OCM", NetworkKind::LMesh, MemoryKind::OCM},
    {"HMesh/OCM", NetworkKind::HMesh, MemoryKind::OCM},
    {"XBar/OCM", NetworkKind::XBar, MemoryKind::OCM},
    {"Ideal/OCM", NetworkKind::Ideal, MemoryKind::OCM},
    {"Ideal/ECM", NetworkKind::Ideal, MemoryKind::ECM},
};

} // namespace

const std::vector<std::string> &
paperConfigNames()
{
    static const std::vector<std::string> names = {
        "LMesh/ECM", "HMesh/ECM", "LMesh/OCM", "HMesh/OCM",
        "XBar/OCM",
    };
    return names;
}

SystemConfig
namedConfig(const std::string &name)
{
    for (const NamedPoint &point : namedPoints) {
        if (name == point.name)
            return makeConfig(point.network, point.memory);
    }
    std::string known;
    for (const NamedPoint &point : namedPoints) {
        if (!known.empty())
            known += ", ";
        known += point.name;
    }
    sim::fatal("unknown configuration \"" + name +
               "\" (known configurations: " + known +
               "; \"paper\" expands to the five paper points)");
}

const std::vector<KnobInfo> &
configKnobs()
{
    static const std::vector<KnobInfo> knobs = {
        {"clusters", "cluster count (perfect square)"},
        {"threads_per_cluster", "hardware threads per cluster"},
        {"mshrs_per_cluster", "per-cluster MSHR file capacity"},
        {"thread_window", "per-thread outstanding-miss window"},
        {"local_hop", "hub traversal latency for local accesses, ticks"},
        {"memory_bandwidth_scale",
         "multiplier on every controller's off-stack bandwidth"},
        {"bytes_per_clock", "crossbar channel bytes per clock"},
        {"sink_buffer_depth", "crossbar home input buffer, messages"},
        {"loop_clocks", "crossbar serpentine loop time, clocks"},
        {"max_batch", "messages modulated per token grant"},
        {"token_node_pause",
         "extra per-cluster token dwell, ticks (0 = flying token)"},
        {"frontend", "injection front end: miss-stream | coherent"},
        {"l1_kib", "per-cluster L1 capacity, KiB (0 = no L1)"},
        {"l1_assoc", "L1 associativity"},
        {"l2_kib", "per-cluster L2 capacity, KiB (0 = no L2)"},
        {"l2_assoc", "L2 associativity"},
        {"cache_line", "cache line size, bytes"},
        {"write_policy", "store policy: writeback | writethrough"},
        {"inval_policy", "invalidation transport: unicast | broadcast"},
        {"broadcast_threshold",
         "minimum sharer count that prefers the broadcast bus"},
        {"label", "display label / campaign axis name"},
    };
    return knobs;
}

void
applyConfigKnob(SystemConfig &config, const std::string &key,
                const std::string &value)
{
    constexpr const char *what = "config knob";
    if (key == "clusters") {
        const std::uint64_t clusters = knobPositive(what, key, value);
        // topology::Geometry requires a square grid; reject here so a
        // bad scenario dies at resolve time, not on a worker thread.
        const auto radix = static_cast<std::uint64_t>(
            std::lround(std::sqrt(static_cast<double>(clusters))));
        if (radix * radix != clusters)
            badValue(what, key, value,
                     "a perfect-square cluster count");
        config.clusters = clusters;
    }
    else if (key == "threads_per_cluster")
        config.threads_per_cluster = knobPositive(what, key, value);
    else if (key == "mshrs_per_cluster")
        config.mshrs_per_cluster = knobPositive(what, key, value);
    else if (key == "thread_window")
        config.thread_window = knobPositive(what, key, value);
    else if (key == "local_hop")
        config.local_hop = knobUnsigned(what, key, value);
    else if (key == "memory_bandwidth_scale")
        config.memory_bandwidth_scale =
            knobPositiveDouble(what, key, value);
    else if (key == "bytes_per_clock")
        config.xbar_channel.bytes_per_clock = knobUint32(
            what, key, value, knobPositive(what, key, value));
    else if (key == "sink_buffer_depth")
        config.xbar_channel.sink_buffer_depth =
            knobPositive(what, key, value);
    else if (key == "loop_clocks")
        config.xbar_channel.loop_clocks =
            knobUnsigned(what, key, value);
    else if (key == "max_batch")
        config.xbar_channel.max_batch = knobPositive(what, key, value);
    else if (key == "token_node_pause")
        config.xbar_channel.token_node_pause =
            knobUnsigned(what, key, value);
    else if (key == "frontend") {
        if (value == "miss-stream")
            config.frontend = FrontendKind::MissStream;
        else if (value == "coherent")
            config.frontend = FrontendKind::Coherent;
        else
            badValue(what, key, value, "miss-stream or coherent");
    }
    else if (key == "l1_kib")
        config.l1_kib = knobUint32(what, key, value,
                                   knobUnsigned(what, key, value));
    else if (key == "l1_assoc")
        config.l1_assoc = knobUint32(what, key, value,
                                     knobPositive(what, key, value));
    else if (key == "l2_kib")
        config.l2_kib = knobUint32(what, key, value,
                                   knobUnsigned(what, key, value));
    else if (key == "l2_assoc")
        config.l2_assoc = knobUint32(what, key, value,
                                     knobPositive(what, key, value));
    else if (key == "cache_line")
        config.cache_line = knobUint32(what, key, value,
                                       knobPositive(what, key, value));
    else if (key == "write_policy") {
        if (value == "writeback")
            config.write_through = false;
        else if (value == "writethrough")
            config.write_through = true;
        else
            badValue(what, key, value, "writeback or writethrough");
    }
    else if (key == "inval_policy") {
        if (value == "unicast")
            config.inval_transport = InvalTransport::Unicast;
        else if (value == "broadcast")
            config.inval_transport = InvalTransport::Broadcast;
        else
            badValue(what, key, value, "unicast or broadcast");
    }
    else if (key == "broadcast_threshold")
        config.broadcast_threshold = knobUnsigned(what, key, value);
    else if (key == "label")
        config.label = value;
    else
        badKnob(what, key, configKnobs());
}

std::string
configKnobExpression(const SystemConfig &config)
{
    const std::string base =
        to_string(config.network) + "/" + to_string(config.memory);
    const SystemConfig defaults =
        makeConfig(config.network, config.memory);

    std::ostringstream os;
    os << base;
    const auto emit = [&os](const char *key, const std::string &value) {
        os << " " << key << "=" << value;
    };
    if (config.clusters != defaults.clusters)
        emit("clusters", std::to_string(config.clusters));
    if (config.threads_per_cluster != defaults.threads_per_cluster)
        emit("threads_per_cluster",
             std::to_string(config.threads_per_cluster));
    if (config.mshrs_per_cluster != defaults.mshrs_per_cluster)
        emit("mshrs_per_cluster",
             std::to_string(config.mshrs_per_cluster));
    if (config.thread_window != defaults.thread_window)
        emit("thread_window", std::to_string(config.thread_window));
    if (config.local_hop != defaults.local_hop)
        emit("local_hop", std::to_string(config.local_hop));
    if (config.memory_bandwidth_scale !=
        defaults.memory_bandwidth_scale)
        emit("memory_bandwidth_scale",
             shortestDouble(config.memory_bandwidth_scale));
    if (config.xbar_channel.bytes_per_clock !=
        defaults.xbar_channel.bytes_per_clock)
        emit("bytes_per_clock",
             std::to_string(config.xbar_channel.bytes_per_clock));
    if (config.xbar_channel.sink_buffer_depth !=
        defaults.xbar_channel.sink_buffer_depth)
        emit("sink_buffer_depth",
             std::to_string(config.xbar_channel.sink_buffer_depth));
    if (config.xbar_channel.loop_clocks !=
        defaults.xbar_channel.loop_clocks)
        emit("loop_clocks",
             std::to_string(config.xbar_channel.loop_clocks));
    if (config.xbar_channel.max_batch !=
        defaults.xbar_channel.max_batch)
        emit("max_batch",
             std::to_string(config.xbar_channel.max_batch));
    if (config.xbar_channel.token_node_pause !=
        defaults.xbar_channel.token_node_pause)
        emit("token_node_pause",
             std::to_string(config.xbar_channel.token_node_pause));
    if (config.frontend != defaults.frontend)
        emit("frontend", to_string(config.frontend));
    if (config.l1_kib != defaults.l1_kib)
        emit("l1_kib", std::to_string(config.l1_kib));
    if (config.l1_assoc != defaults.l1_assoc)
        emit("l1_assoc", std::to_string(config.l1_assoc));
    if (config.l2_kib != defaults.l2_kib)
        emit("l2_kib", std::to_string(config.l2_kib));
    if (config.l2_assoc != defaults.l2_assoc)
        emit("l2_assoc", std::to_string(config.l2_assoc));
    if (config.cache_line != defaults.cache_line)
        emit("cache_line", std::to_string(config.cache_line));
    if (config.write_through != defaults.write_through)
        emit("write_policy",
             config.write_through ? "writethrough" : "writeback");
    if (config.inval_transport != defaults.inval_transport)
        emit("inval_policy", to_string(config.inval_transport));
    if (config.broadcast_threshold != defaults.broadcast_threshold)
        emit("broadcast_threshold",
             std::to_string(config.broadcast_threshold));
    if (!config.label.empty() && config.label != base) {
        const bool quote =
            config.label.find(' ') != std::string::npos;
        os << " label=";
        if (quote)
            os << '"' << config.label << '"';
        else
            os << config.label;
    }
    return os.str();
}

} // namespace corona::core
