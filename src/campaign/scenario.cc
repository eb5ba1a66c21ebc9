#include "campaign/scenario.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace corona::campaign {

namespace {

[[noreturn]] void
badExpression(const char *what, const std::string &text,
              const std::string &message)
{
    sim::fatal(std::string(what) + " expression \"" + text + "\": " +
               message);
}

/** Split @p text into whitespace-separated tokens; a double-quoted
 * span (after a knob's '=' or anywhere) keeps its spaces, quotes
 * stripped. Fatal on an unterminated quote. */
std::vector<std::string>
tokenize(const std::string &text, const char *what)
{
    std::vector<std::string> tokens;
    std::string current;
    bool in_token = false;
    bool in_quote = false;
    for (const char c : text) {
        if (c == '"') {
            in_quote = !in_quote;
            in_token = true; // "" is a valid (empty) value.
            continue;
        }
        if (!in_quote && (c == ' ' || c == '\t')) {
            if (in_token)
                tokens.push_back(current);
            current.clear();
            in_token = false;
            continue;
        }
        current += c;
        in_token = true;
    }
    if (in_quote)
        badExpression(what, text, "unterminated '\"'");
    if (in_token)
        tokens.push_back(current);
    return tokens;
}

/** Quote @p value for canonical emission when needed. */
std::string
quoteValue(const std::string &value)
{
    if (value.empty() || value.find(' ') != std::string::npos ||
        value.find('\t') != std::string::npos)
        return "\"" + value + "\"";
    return value;
}

[[noreturn]] void
badScenario(const std::string &message)
{
    sim::fatal("scenario: " + message);
}

[[noreturn]] void
badEntry(const ScenarioEntry &entry, const std::string &message)
{
    sim::fatal("scenario: line " + std::to_string(entry.line) + ": " +
               message);
}

/** @p entry's value; its errors read "scenario: line N: <key> ...". */
core::KnobValue
entryValue(const ScenarioEntry &entry)
{
    return {"scenario: line " + std::to_string(entry.line) + ": " +
                entry.key + " ",
            entry.value};
}

bool
entryOnOff(const ScenarioEntry &entry)
{
    const auto value = core::parseOnOff(entry.value);
    if (!value)
        badEntry(entry, entry.key + " is on/off, got \"" + entry.value +
                            "\"");
    return *value;
}

const std::string &
entryNonEmpty(const ScenarioEntry &entry)
{
    if (entry.value.empty())
        badEntry(entry, entry.key + " is empty");
    return entry.value;
}

/** @p target's @p field as value text (on/off, the string itself or a
 * decimal), or nothing when it holds its default: its value in a
 * default-built Target. */
template <typename Target, typename Field>
std::optional<std::string>
unlessDefault(const Target &target, Field Target::*field)
{
    const Field &value = target.*field;
    if (value == Target{}.*field)
        return std::nullopt;
    if constexpr (std::is_same_v<Field, bool>)
        return value ? "on" : "off";
    else if constexpr (std::is_same_v<Field, std::string>)
        return value;
    else
        return std::to_string(value);
}

constexpr ScenarioKey<ScenarioSpec> scenarioKeyRows[] = {
    {"name",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         s.name = entryNonEmpty(e);
     },
     [](const ScenarioSpec &s) -> std::optional<std::string> {
         return s.name;
     }},
    {"requests",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         s.requests = core::expectPositive(entryValue(e));
     },
     [](const ScenarioSpec &s) -> std::optional<std::string> {
         return std::to_string(s.requests);
     }},
    {"warmup_requests",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         s.warmup_requests = core::expectUnsigned(entryValue(e));
     },
     [](const ScenarioSpec &s) {
         return unlessDefault(s, &ScenarioSpec::warmup_requests);
     }},
    {"seed",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         s.seed = core::expectUnsigned(entryValue(e));
     },
     [](const ScenarioSpec &s) {
         return unlessDefault(s, &ScenarioSpec::seed);
     }},
    {"campaign_seed",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         s.campaign_seed = core::expectUnsigned(entryValue(e));
     },
     [](const ScenarioSpec &s) {
         return unlessDefault(s, &ScenarioSpec::campaign_seed);
     }},
    {"seed_policy",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         if (e.value == "fixed")
             s.seed_policy = SeedPolicy::Fixed;
         else if (e.value == "derived")
             s.seed_policy = SeedPolicy::Derived;
         else
             badEntry(e, "seed_policy is \"fixed\" or \"derived\", "
                         "got \"" +
                             e.value + "\"");
     },
     [](const ScenarioSpec &s) -> std::optional<std::string> {
         return s.seed_policy == SeedPolicy::Fixed ? "fixed" : "derived";
     }},
    {"seeds",
     [](ScenarioSpec &s, const ScenarioEntry &e) {
         std::istringstream is(e.value);
         std::string item;
         while (std::getline(is, item, ',')) {
             const auto salt = core::parseUnsigned(item);
             if (!salt)
                 badEntry(e, "seeds is a comma-separated list of "
                             "unsigned integers, got \"" +
                                 e.value + "\"");
             s.seeds.push_back(*salt);
         }
         if (s.seeds.empty())
             badEntry(e, "seeds list is empty");
     },
     [](const ScenarioSpec &s) -> std::optional<std::string> {
         if (s.seeds.empty())
             return std::nullopt;
         std::string salts;
         for (const std::uint64_t salt : s.seeds) {
             if (!salts.empty())
                 salts += ",";
             salts += std::to_string(salt);
         }
         return salts;
     }},
};

constexpr ScenarioKey<ScenarioExecution> executionKeyRows[] = {
    {"threads",
     [](ScenarioExecution &x, const ScenarioEntry &e) {
         x.threads =
             static_cast<std::size_t>(core::expectUnsigned(entryValue(e)));
     },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::threads);
     }},
    {"sim_threads",
     [](ScenarioExecution &x, const ScenarioEntry &e) {
         constexpr unsigned most = std::numeric_limits<unsigned>::max();
         const std::uint64_t shards = core::expectUnsigned(entryValue(e));
         if (shards > most)
             badEntry(e, "sim_threads " + e.value +
                             " exceeds the maximum " +
                             std::to_string(most));
         x.sim_threads = static_cast<unsigned>(shards);
     },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::sim_threads);
     }},
    {"checkpoint",
     [](ScenarioExecution &x, const ScenarioEntry &e) {
         x.checkpoint = e.value;
     },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::checkpoint);
     }},
    {"csv",
     [](ScenarioExecution &x, const ScenarioEntry &e) { x.csv = e.value; },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::csv);
     }},
    {"summary",
     [](ScenarioExecution &x, const ScenarioEntry &e) {
         x.summary = e.value;
     },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::summary);
     }},
    {"progress",
     [](ScenarioExecution &x, const ScenarioEntry &e) {
         x.progress = entryOnOff(e);
     },
     [](const ScenarioExecution &x) {
         return unlessDefault(x, &ScenarioExecution::progress);
     }},
};

using ObsOptions = obs::CampaignObsOptions;

constexpr ScenarioKey<ObsOptions> observabilityKeyRows[] = {
    {"sample_period",
     [](ObsOptions &o, const ScenarioEntry &e) {
         o.sample_period = core::expectUnsigned(entryValue(e));
     },
     [](const ObsOptions &o) {
         return unlessDefault(o, &ObsOptions::sample_period);
     }},
    {"trace_capacity",
     [](ObsOptions &o, const ScenarioEntry &e) {
         o.trace_capacity =
             static_cast<std::size_t>(core::expectUnsigned(entryValue(e)));
     },
     [](const ObsOptions &o) {
         return unlessDefault(o, &ObsOptions::trace_capacity);
     }},
    {"snapshot",
     [](ObsOptions &o, const ScenarioEntry &e) {
         o.snapshot = entryOnOff(e);
     },
     [](const ObsOptions &o) {
         return unlessDefault(o, &ObsOptions::snapshot);
     }},
    {"rollup",
     [](ObsOptions &o, const ScenarioEntry &e) {
         o.rollup = entryOnOff(e);
     },
     [](const ObsOptions &o) {
         return unlessDefault(o, &ObsOptions::rollup);
     }},
    {"dir",
     [](ObsOptions &o, const ScenarioEntry &e) { o.dir = entryNonEmpty(e); },
     [](const ObsOptions &o) { return unlessDefault(o, &ObsOptions::dir); }},
};

/** Enforce that @p section only holds keys of @p keys, each at most
 * once. */
template <typename Target>
void
checkUniqueKeys(const ScenarioSection &section,
                std::span<const ScenarioKey<Target>> keys)
{
    for (const ScenarioEntry &entry : section.entries) {
        bool known = false;
        for (const ScenarioKey<Target> &key : keys)
            known = known || entry.key == key.key;
        if (!known)
            badEntry(entry, "unknown key \"" + entry.key +
                                "\" in [" + section.name + "]");
        std::size_t count = 0;
        for (const ScenarioEntry &other : section.entries) {
            if (other.key == entry.key)
                ++count;
        }
        if (count > 1)
            badEntry(entry, "duplicate key \"" + entry.key +
                                "\" in [" + section.name + "]");
    }
}

/** Check @p section's keys, then parse each entry, in file order,
 * into @p target. */
template <typename Target>
void
parseKeys(const ScenarioSection &section,
          std::span<const ScenarioKey<Target>> keys, Target &target)
{
    checkUniqueKeys(section, keys);
    for (const ScenarioEntry &entry : section.entries) {
        for (const ScenarioKey<Target> &key : keys) {
            if (entry.key == key.key)
                key.parse(target, entry);
        }
    }
}

/** Append the [@p name] section of @p target to @p doc: every key not
 * at its default, in table order; no section when every key is. */
template <typename Target>
void
formatKeys(ScenarioDoc &doc, const char *name,
           std::span<const ScenarioKey<Target>> keys, const Target &target)
{
    ScenarioSection section{name, {}, 0};
    for (const ScenarioKey<Target> &key : keys) {
        if (std::optional<std::string> text = key.format(target))
            section.entries.push_back({key.key, std::move(*text), 0});
    }
    if (!section.entries.empty())
        doc.sections.push_back(std::move(section));
}

/** A section whose only (repeatable) key is @p key; returns values. */
std::vector<std::string>
listSection(const ScenarioSection &section, const char *key)
{
    std::vector<std::string> values;
    for (const ScenarioEntry &entry : section.entries) {
        if (entry.key != key)
            badEntry(entry, "unknown key \"" + entry.key + "\" in [" +
                                section.name + "] (only \"" + key +
                                " = ...\" entries are allowed)");
        if (entry.value.empty())
            badEntry(entry, std::string(key) + " entry is empty");
        values.push_back(entry.value);
    }
    return values;
}

/** listSection() of a section that must hold an entry. */
std::vector<std::string>
requiredList(const ScenarioSection &section, const char *key)
{
    std::vector<std::string> values = listSection(section, key);
    if (values.empty())
        badScenario("[" + section.name + "] has no \"" + key +
                    " = ...\" entries");
    return values;
}

/** Append the [@p name] section holding one @p key entry per value. */
void
formatList(ScenarioDoc &doc, const char *name, const char *key,
           const std::vector<std::string> &values)
{
    ScenarioSection section{name, {}, 0};
    for (const std::string &value : values)
        section.entries.push_back({key, value, 0});
    doc.sections.push_back(std::move(section));
}

/** One section of a scenario file. */
struct SectionRow
{
    const char *name;
    /** A file without the section is refused. */
    bool required;
    /** Parse the section's entries into @p spec; fatal on a bad one. */
    void (*parse)(ScenarioSpec &spec, const ScenarioSection &section);
    /** Append the section to @p doc, unless the canonical form leaves
     * it out. */
    void (*format)(ScenarioDoc &doc, const char *name,
                   const ScenarioSpec &spec);
};

/** The sections in canonical order, which is also the order they are
 * parsed and checked in. */
constexpr SectionRow sectionRows[] = {
    {"scenario", true,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         parseKeys(section, scenarioKeys(), s);
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         // Never empty: name, requests and seed_policy always print.
         formatKeys(doc, name, scenarioKeys(), s);
     }},
    {"workloads", true,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         s.workloads = requiredList(section, "workload");
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         formatList(doc, name, "workload", s.workloads);
     }},
    {"configs", true,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         s.configs = requiredList(section, "config");
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         formatList(doc, name, "config", s.configs);
     }},
    {"overrides", false,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         s.overrides = listSection(section, "override");
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         if (!s.overrides.empty())
             formatList(doc, name, "override", s.overrides);
     }},
    {"execution", false,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         parseKeys(section, executionKeys(), s.execution);
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         formatKeys(doc, name, executionKeys(), s.execution);
     }},
    {"observability", false,
     [](ScenarioSpec &s, const ScenarioSection &section) {
         parseKeys(section, observabilityKeys(), s.observability);
     },
     [](ScenarioDoc &doc, const char *name, const ScenarioSpec &s) {
         formatKeys(doc, name, observabilityKeys(), s.observability);
     }},
};

} // namespace

std::span<const ScenarioKey<ScenarioSpec>>
scenarioKeys()
{
    return scenarioKeyRows;
}

std::span<const ScenarioKey<ScenarioExecution>>
executionKeys()
{
    return executionKeyRows;
}

std::span<const ScenarioKey<obs::CampaignObsOptions>>
observabilityKeys()
{
    return observabilityKeyRows;
}

AxisExpression
parseAxisExpression(const std::string &text, const char *what)
{
    AxisExpression expression;
    bool seen_knob = false;
    for (const std::string &token : tokenize(text, what)) {
        const auto equals = token.find('=');
        if (equals == std::string::npos) {
            if (seen_knob)
                badExpression(what, text,
                              "name token \"" + token +
                                  "\" after the first knob");
            if (!expression.name.empty())
                expression.name += " ";
            expression.name += token;
            continue;
        }
        const std::string key = token.substr(0, equals);
        if (!validScenarioName(key))
            badExpression(what, text,
                          "bad knob key \"" + key +
                              "\" (lowercase [a-z0-9_] only)");
        expression.knobs.emplace_back(key, token.substr(equals + 1));
        seen_knob = true;
    }
    if (expression.name.empty())
        badExpression(what, text, "missing name");
    return expression;
}

std::string
canonicalExpression(const AxisExpression &expression)
{
    std::ostringstream os;
    os << expression.name;
    for (const auto &[key, value] : expression.knobs)
        os << " " << key << "=" << quoteValue(value);
    return os.str();
}

CampaignSpec
ScenarioSpec::resolve() const
{
    if (workloads.empty())
        badScenario("\"" + name + "\" has no [workloads] entries");
    if (configs.empty())
        badScenario("\"" + name + "\" has no [configs] entries");

    CampaignSpec spec;
    spec.name = name;
    spec.base.requests = requests;
    spec.base.warmup_requests = warmup_requests;
    spec.base.seed = seed;
    spec.base.sim_threads = execution.sim_threads;
    spec.campaign_seed = campaign_seed;
    spec.seed_policy = seed_policy;
    spec.seeds = seeds;

    const auto addWorkload =
        [&spec](const std::string &workload_name,
                const std::vector<workload::WorkloadKnob> &knobs) {
            AxisExpression canonical{workload_name, knobs};
            spec.workloads.push_back(WorkloadSpec{
                canonicalExpression(canonical),
                workload::registryEntry(workload_name).synthetic,
                workload::registryFactory(workload_name, knobs)});
        };
    for (const std::string &text : workloads) {
        const AxisExpression expr =
            parseAxisExpression(text, "workload");
        if (expr.name == "all") {
            // The alias means the Table-3 suite; sharing-pattern
            // generators are addressable by name only, so historical
            // "all" sweeps stay bit-compatible.
            for (const workload::RegistryEntry &registered :
                 workload::registry()) {
                if (!registered.sharing)
                    addWorkload(registered.name, expr.knobs);
            }
        } else {
            addWorkload(expr.name, expr.knobs);
        }
    }

    const auto addConfig =
        [&spec](const std::string &config_name,
                const std::vector<std::pair<std::string, std::string>>
                    &knobs) {
            core::SystemConfig config = core::namedConfig(config_name);
            bool labelled = false;
            for (const auto &[key, value] : knobs) {
                core::applyConfigKnob(config, key, value);
                labelled = labelled || key == "label";
            }
            if (!knobs.empty() && !labelled) {
                // Distinct knobbed variants of one base point must
                // not alias each other's axis label / fingerprint.
                config.label = canonicalExpression(
                    AxisExpression{config_name, knobs});
            }
            spec.configs.push_back(std::move(config));
        };
    for (const std::string &text : configs) {
        const AxisExpression expr = parseAxisExpression(text, "config");
        if (expr.name == "paper") {
            for (const std::string &paper_name :
                 core::paperConfigNames())
                addConfig(paper_name, expr.knobs);
        } else {
            addConfig(expr.name, expr.knobs);
        }
    }

    for (const std::string &text : overrides) {
        const AxisExpression expr =
            parseAxisExpression(text, "override");
        // Validate every knob eagerly, against the base parameters,
        // so a bad expression dies at resolve time rather than on a
        // worker thread mid-campaign.
        core::SimParams scratch = spec.base;
        for (const auto &[key, value] : expr.knobs)
            core::applySimParamsKnob(scratch, key, value);
        ParamsOverride override_spec;
        override_spec.label = expr.name;
        checkBudget(spec, override_spec, scratch);
        if (!expr.knobs.empty()) {
            override_spec.apply = [knobs = expr.knobs](
                                      core::SimParams &params) {
                for (const auto &[key, value] : knobs)
                    core::applySimParamsKnob(params, key, value);
            };
        }
        spec.overrides.push_back(std::move(override_spec));
    }

    // With no override, every run uses the base parameters as they
    // are (expand()'s one default override).
    if (spec.overrides.empty())
        checkBudget(spec, ParamsOverride{}, spec.base);

    // Reject duplicate axis entries now — "a scenario that parses is
    // a scenario that runs", so a collision must not wait for the
    // runner's expand() after the job has been distributed.
    validateAxisLabels(spec);

    return spec;
}

ScenarioSpec
parseScenario(std::string_view text)
{
    const ScenarioDoc doc = parseScenarioText(text);
    ScenarioSpec spec;

    for (const ScenarioSection &section : doc.sections) {
        bool known = false;
        std::string names;
        for (const SectionRow &row : sectionRows) {
            known = known || section.name == row.name;
            names += std::string(names.empty() ? "" : ", ") + row.name;
        }
        if (!known)
            badScenario("line " + std::to_string(section.line) +
                        ": unknown section [" + section.name +
                        "] (known: " + names + ")");
    }

    for (const SectionRow &row : sectionRows) {
        const ScenarioSection *section = doc.find(row.name);
        if (section)
            row.parse(spec, *section);
        else if (row.required)
            badScenario(std::string("missing [") + row.name +
                        "] section");
    }

    // Surface resolution errors (unknown workload/config/knob) at
    // parse time: a scenario that parses is a scenario that runs.
    spec.resolve();
    return spec;
}

ScenarioSpec
loadScenarioFile(const std::string &path)
{
    std::ifstream stream(path);
    if (!stream)
        badScenario("cannot read scenario file \"" + path + "\"");
    std::ostringstream text;
    text << stream.rdbuf();
    return parseScenario(text.str());
}

std::string
serializeScenario(const ScenarioSpec &spec)
{
    ScenarioDoc doc;
    for (const SectionRow &row : sectionRows)
        row.format(doc, row.name, spec);
    return serializeScenarioDoc(doc);
}

} // namespace corona::campaign
