#include "corona/knobs.hh"

#include <charconv>
#include <cmath>
#include <limits>

namespace corona::core {

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

// ------------------------------------------------- checked values

namespace {

[[noreturn]] void
badValue(const KnobValue &value, const char *expected)
{
    sim::fatal(value.what + "expects " + expected + ", got \"" +
               value.text + "\"");
}

/** @p parsed, the value's number, else "a value of at most
 * 4294967295" when it does not fit a std::uint32_t field. */
std::uint32_t
expectUint32(const KnobValue &value, std::uint64_t parsed)
{
    if (parsed > std::numeric_limits<std::uint32_t>::max())
        badValue(value, "a value of at most 4294967295");
    return static_cast<std::uint32_t>(parsed);
}

/** A finite number above zero, else "a positive number". */
double
expectPositiveNumber(const KnobValue &value)
{
    const auto parsed = parseStrictDouble(value.text);
    if (!parsed || *parsed <= 0.0)
        badValue(value, "a positive number");
    return *parsed;
}

/** False for @p first, true for @p second, else
 * "<first> or <second>". */
bool
expectEither(const KnobValue &value, const char *first,
             const char *second)
{
    if (value.text == first)
        return false;
    if (value.text == second)
        return true;
    badValue(value, (std::string(first) + " or " + second).c_str());
}

} // namespace

std::uint64_t
expectUnsigned(const KnobValue &value)
{
    const auto parsed = parseUnsigned(value.text);
    if (!parsed)
        badValue(value, "an unsigned decimal integer");
    return *parsed;
}

std::uint64_t
expectPositive(const KnobValue &value)
{
    const auto parsed = parsePositiveCount(value.text);
    if (!parsed)
        badValue(value, "a strictly positive decimal integer");
    return *parsed;
}

std::uint64_t
expectClusters(const KnobValue &value)
{
    const std::uint64_t clusters = expectPositive(value);
    // Reject here so a bad scenario dies at resolve time, not on a
    // worker thread mid-campaign.
    const auto radix = static_cast<std::uint64_t>(
        std::lround(std::sqrt(static_cast<double>(clusters))));
    if (radix * radix != clusters)
        badValue(value, "a perfect-square cluster count");
    return clusters;
}

double
expectFraction(const KnobValue &value)
{
    const auto parsed = parseStrictDouble(value.text);
    if (!parsed || *parsed < 0.0 || *parsed > 1.0)
        badValue(value, "a fraction in [0, 1]");
    return *parsed;
}

// ------------------------------------------------------- SimParams

namespace {

constexpr Knob<SimParams> simParamsKnobRows[] = {
    {"requests",
     [](SimParams &p, const KnobValue &v) {
         p.requests = expectPositive(v);
     }},
    {"warmup_requests",
     [](SimParams &p, const KnobValue &v) {
         p.warmup_requests = expectUnsigned(v);
     }},
    {"seed",
     [](SimParams &p, const KnobValue &v) { p.seed = expectUnsigned(v); }},
};

constexpr auto everyRow = [](const auto &) { return true; };

} // namespace

void
applySimParamsKnob(SimParams &params, const std::string &key,
                   const std::string &value)
{
    applyKnob(simParamsKnobRows, everyRow,
              "SimParams override", params, key, value);
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

using ConfigKnob = Knob<SystemConfig>;

constexpr ConfigKnob configKnobRows[] = {
    {"clusters",
     [](SystemConfig &c, const KnobValue &v) {
         c.clusters = expectClusters(v);
     }},
    {"threads_per_cluster",
     [](SystemConfig &c, const KnobValue &v) {
         c.threads_per_cluster = expectPositive(v);
     }},
    {"mshrs_per_cluster",
     [](SystemConfig &c, const KnobValue &v) {
         c.mshrs_per_cluster = expectPositive(v);
     }},
    {"thread_window",
     [](SystemConfig &c, const KnobValue &v) {
         c.thread_window = expectPositive(v);
     }},
    {"local_hop",
     [](SystemConfig &c, const KnobValue &v) {
         c.local_hop = expectUnsigned(v);
     }},
    {"memory_bandwidth_scale",
     [](SystemConfig &c, const KnobValue &v) {
         c.memory_bandwidth_scale = expectPositiveNumber(v);
     }},
    {"bytes_per_clock",
     [](SystemConfig &c, const KnobValue &v) {
         c.xbar_channel.bytes_per_clock =
             expectUint32(v, expectPositive(v));
     }},
    {"sink_buffer_depth",
     [](SystemConfig &c, const KnobValue &v) {
         c.xbar_channel.sink_buffer_depth = expectPositive(v);
     }},
    {"loop_clocks",
     [](SystemConfig &c, const KnobValue &v) {
         c.xbar_channel.loop_clocks = expectUnsigned(v);
     }},
    {"max_batch",
     [](SystemConfig &c, const KnobValue &v) {
         c.xbar_channel.max_batch = expectPositive(v);
     }},
    {"token_node_pause",
     [](SystemConfig &c, const KnobValue &v) {
         c.xbar_channel.token_node_pause = expectUnsigned(v);
     }},
    {"frontend",
     [](SystemConfig &c, const KnobValue &v) {
         c.frontend = expectEither(v, "miss-stream", "coherent")
                          ? FrontendKind::Coherent
                          : FrontendKind::MissStream;
     }},
    {"l1_kib",
     [](SystemConfig &c, const KnobValue &v) {
         c.l1_kib = expectUint32(v, expectUnsigned(v));
     }},
    {"l1_assoc",
     [](SystemConfig &c, const KnobValue &v) {
         c.l1_assoc = expectUint32(v, expectPositive(v));
     }},
    {"l2_kib",
     [](SystemConfig &c, const KnobValue &v) {
         c.l2_kib = expectUint32(v, expectUnsigned(v));
     }},
    {"l2_assoc",
     [](SystemConfig &c, const KnobValue &v) {
         c.l2_assoc = expectUint32(v, expectPositive(v));
     }},
    {"cache_line",
     [](SystemConfig &c, const KnobValue &v) {
         c.cache_line = expectUint32(v, expectPositive(v));
     }},
    {"write_policy",
     [](SystemConfig &c, const KnobValue &v) {
         c.write_through = expectEither(v, "writeback", "writethrough");
     }},
    {"inval_policy",
     [](SystemConfig &c, const KnobValue &v) {
         c.inval_transport = expectEither(v, "unicast", "broadcast")
                                 ? InvalTransport::Broadcast
                                 : InvalTransport::Unicast;
     }},
    {"broadcast_threshold",
     [](SystemConfig &c, const KnobValue &v) {
         c.broadcast_threshold = expectUnsigned(v);
     }},
    {"label",
     [](SystemConfig &c, const KnobValue &v) { c.label = v.text; }},
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

std::vector<SystemConfig>
paperConfigs()
{
    std::vector<SystemConfig> configs;
    for (const std::string &name : paperConfigNames())
        configs.push_back(namedConfig(name));
    return configs;
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

std::span<const Knob<SystemConfig>>
configKnobs()
{
    return configKnobRows;
}

void
applyConfigKnob(SystemConfig &config, const std::string &key,
                const std::string &value)
{
    applyKnob(configKnobRows, everyRow, "config knob", config, key,
              value);
}

} // namespace corona::core
