#include "campaign/scenario.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/scenario_format.hh"
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

std::uint64_t
entryUnsigned(const ScenarioEntry &entry)
{
    const auto value = core::parseUnsigned(entry.value);
    if (!value)
        badEntry(entry, entry.key +
                            " expects an unsigned decimal integer, "
                            "got \"" +
                            entry.value + "\"");
    return *value;
}

std::uint64_t
entryPositive(const ScenarioEntry &entry)
{
    const auto value = core::parsePositiveCount(entry.value);
    if (!value)
        badEntry(entry, entry.key +
                            " expects a strictly positive decimal "
                            "integer, got \"" +
                            entry.value + "\"");
    return *value;
}

/** Enforce that @p section only holds keys from @p allowed, each at
 * most once. */
void
checkUniqueKeys(const ScenarioSection &section,
                const std::vector<std::string> &allowed)
{
    for (const ScenarioEntry &entry : section.entries) {
        bool known = false;
        for (const std::string &key : allowed)
            known = known || key == entry.key;
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

} // namespace

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
        if (section.name != "scenario" &&
            section.name != "workloads" &&
            section.name != "configs" &&
            section.name != "overrides" &&
            section.name != "execution" &&
            section.name != "observability")
            badScenario(
                "line " + std::to_string(section.line) +
                ": unknown section [" + section.name +
                "] (known: scenario, workloads, configs, overrides, "
                "execution, observability)");
    }

    const ScenarioSection *header = doc.find("scenario");
    if (!header)
        badScenario("missing [scenario] section");
    checkUniqueKeys(*header,
                    {"name", "requests", "warmup_requests", "seed",
                     "campaign_seed", "seed_policy", "seeds"});
    for (const ScenarioEntry &entry : header->entries) {
        if (entry.key == "name") {
            if (entry.value.empty())
                badEntry(entry, "name is empty");
            spec.name = entry.value;
        } else if (entry.key == "requests") {
            spec.requests = entryPositive(entry);
        } else if (entry.key == "warmup_requests") {
            spec.warmup_requests = entryUnsigned(entry);
        } else if (entry.key == "seed") {
            spec.seed = entryUnsigned(entry);
        } else if (entry.key == "campaign_seed") {
            spec.campaign_seed = entryUnsigned(entry);
        } else if (entry.key == "seed_policy") {
            if (entry.value == "fixed")
                spec.seed_policy = SeedPolicy::Fixed;
            else if (entry.value == "derived")
                spec.seed_policy = SeedPolicy::Derived;
            else
                badEntry(entry, "seed_policy is \"fixed\" or "
                                "\"derived\", got \"" +
                                    entry.value + "\"");
        } else if (entry.key == "seeds") {
            std::istringstream is(entry.value);
            std::string item;
            while (std::getline(is, item, ',')) {
                const auto salt = core::parseUnsigned(item);
                if (!salt)
                    badEntry(entry,
                             "seeds is a comma-separated list of "
                             "unsigned integers, got \"" +
                                 entry.value + "\"");
                spec.seeds.push_back(*salt);
            }
            if (spec.seeds.empty())
                badEntry(entry, "seeds list is empty");
        }
    }

    const ScenarioSection *workloads = doc.find("workloads");
    if (!workloads)
        badScenario("missing [workloads] section");
    spec.workloads = listSection(*workloads, "workload");
    if (spec.workloads.empty())
        badScenario("[workloads] has no \"workload = ...\" entries");

    const ScenarioSection *configs = doc.find("configs");
    if (!configs)
        badScenario("missing [configs] section");
    spec.configs = listSection(*configs, "config");
    if (spec.configs.empty())
        badScenario("[configs] has no \"config = ...\" entries");

    if (const ScenarioSection *overrides = doc.find("overrides"))
        spec.overrides = listSection(*overrides, "override");

    if (const ScenarioSection *execution = doc.find("execution")) {
        checkUniqueKeys(*execution,
                        {"threads", "sim_threads", "checkpoint", "csv",
                         "jsonl", "summary", "progress",
                         "reuse_systems"});
        for (const ScenarioEntry &entry : execution->entries) {
            if (entry.key == "threads") {
                spec.execution.threads =
                    static_cast<std::size_t>(entryUnsigned(entry));
            } else if (entry.key == "sim_threads") {
                constexpr unsigned most =
                    std::numeric_limits<unsigned>::max();
                const std::uint64_t shards = entryUnsigned(entry);
                if (shards > most)
                    badEntry(entry, "sim_threads " + entry.value +
                                        " exceeds the maximum " +
                                        std::to_string(most));
                spec.execution.sim_threads =
                    static_cast<unsigned>(shards);
            } else if (entry.key == "checkpoint") {
                spec.execution.checkpoint = entry.value;
            } else if (entry.key == "csv") {
                spec.execution.csv = entry.value;
            } else if (entry.key == "jsonl") {
                spec.execution.jsonl = entry.value;
            } else if (entry.key == "summary") {
                spec.execution.summary = entry.value;
            } else if (entry.key == "progress") {
                const auto value = core::parseOnOff(entry.value);
                if (!value)
                    badEntry(entry, "progress is on/off, got \"" +
                                        entry.value + "\"");
                spec.execution.progress = *value;
            } else if (entry.key == "reuse_systems") {
                const auto value = core::parseOnOff(entry.value);
                if (!value)
                    badEntry(entry, "reuse_systems is on/off, got \"" +
                                        entry.value + "\"");
                spec.execution.reuse_systems = *value;
            }
        }
    }

    if (const ScenarioSection *observability =
            doc.find("observability")) {
        checkUniqueKeys(*observability,
                        {"sample_period", "trace_capacity", "snapshot",
                         "heartbeat", "rollup", "dir"});
        for (const ScenarioEntry &entry : observability->entries) {
            if (entry.key == "sample_period") {
                spec.observability.sample_period = entryUnsigned(entry);
            } else if (entry.key == "trace_capacity") {
                spec.observability.trace_capacity =
                    entryUnsigned(entry);
            } else if (entry.key == "snapshot") {
                const auto value = core::parseOnOff(entry.value);
                if (!value)
                    badEntry(entry, "snapshot is on/off, got \"" +
                                        entry.value + "\"");
                spec.observability.snapshot = *value;
            } else if (entry.key == "heartbeat") {
                const auto value = core::parseOnOff(entry.value);
                if (!value)
                    badEntry(entry, "heartbeat is on/off, got \"" +
                                        entry.value + "\"");
                spec.observability.heartbeat = *value;
            } else if (entry.key == "rollup") {
                const auto value = core::parseOnOff(entry.value);
                if (!value)
                    badEntry(entry, "rollup is on/off, got \"" +
                                        entry.value + "\"");
                spec.observability.rollup = *value;
            } else if (entry.key == "dir") {
                if (entry.value.empty())
                    badEntry(entry, "dir is empty");
                spec.observability.dir = entry.value;
            }
        }
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

    ScenarioSection header{"scenario", {}, 0};
    const auto add = [](ScenarioSection &section, const char *key,
                        const std::string &value) {
        section.entries.push_back({key, value, 0});
    };
    add(header, "name", spec.name);
    add(header, "requests", std::to_string(spec.requests));
    if (spec.warmup_requests != 0)
        add(header, "warmup_requests",
            std::to_string(spec.warmup_requests));
    if (spec.seed != 1)
        add(header, "seed", std::to_string(spec.seed));
    if (spec.campaign_seed != 1)
        add(header, "campaign_seed",
            std::to_string(spec.campaign_seed));
    add(header, "seed_policy",
        spec.seed_policy == SeedPolicy::Fixed ? "fixed" : "derived");
    if (!spec.seeds.empty()) {
        std::string salts;
        for (const std::uint64_t salt : spec.seeds) {
            if (!salts.empty())
                salts += ",";
            salts += std::to_string(salt);
        }
        add(header, "seeds", salts);
    }
    doc.sections.push_back(std::move(header));

    ScenarioSection workloads{"workloads", {}, 0};
    for (const std::string &expression : spec.workloads)
        add(workloads, "workload", expression);
    doc.sections.push_back(std::move(workloads));

    ScenarioSection configs{"configs", {}, 0};
    for (const std::string &expression : spec.configs)
        add(configs, "config", expression);
    doc.sections.push_back(std::move(configs));

    if (!spec.overrides.empty()) {
        ScenarioSection overrides{"overrides", {}, 0};
        for (const std::string &expression : spec.overrides)
            add(overrides, "override", expression);
        doc.sections.push_back(std::move(overrides));
    }

    ScenarioSection execution{"execution", {}, 0};
    const ScenarioExecution &exec = spec.execution;
    if (exec.threads != 0)
        add(execution, "threads", std::to_string(exec.threads));
    if (exec.sim_threads != 0)
        add(execution, "sim_threads",
            std::to_string(exec.sim_threads));
    if (!exec.checkpoint.empty())
        add(execution, "checkpoint", exec.checkpoint);
    if (!exec.csv.empty())
        add(execution, "csv", exec.csv);
    if (!exec.jsonl.empty())
        add(execution, "jsonl", exec.jsonl);
    if (!exec.summary.empty())
        add(execution, "summary", exec.summary);
    if (!exec.progress)
        add(execution, "progress", "off");
    if (!exec.reuse_systems)
        add(execution, "reuse_systems", "off");
    if (!execution.entries.empty())
        doc.sections.push_back(std::move(execution));

    ScenarioSection observability{"observability", {}, 0};
    const ScenarioObservability &obs = spec.observability;
    if (obs.sample_period != 0)
        add(observability, "sample_period",
            std::to_string(obs.sample_period));
    if (obs.trace_capacity != 0)
        add(observability, "trace_capacity",
            std::to_string(obs.trace_capacity));
    if (obs.snapshot)
        add(observability, "snapshot", "on");
    if (obs.heartbeat)
        add(observability, "heartbeat", "on");
    if (obs.rollup)
        add(observability, "rollup", "on");
    if (obs.dir != "obs")
        add(observability, "dir", obs.dir);
    if (!observability.entries.empty())
        doc.sections.push_back(std::move(observability));

    return serializeScenarioDoc(doc);
}

} // namespace corona::campaign
