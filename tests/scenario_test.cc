/**
 * @file
 * Tests for the declarative scenario API: the strict text format
 * (parse/serialize round trips, line-numbered rejection of malformed
 * input), axis expressions, scenario parse -> serialize -> parse
 * byte-stability, registry-backed resolution (unknown names/knobs are
 * fatal), resolve() parity with the legacy hand-built CampaignSpec
 * path (identical sink and checkpoint bytes), duplicate-axis-label
 * rejection in expand(), runScenario, and the strict core::env
 * helper.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_format.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/env.hh"
#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

// ------------------------------------------------------ text format

TEST(ScenarioFormat, ParsesSectionsEntriesCommentsAndBlankLines)
{
    const auto doc = campaign::parseScenarioText(
        "# leading comment\n"
        "\n"
        "[alpha]\n"
        "key = value\n"
        "  spaced   =   inner value  \n"
        "repeat = 1\n"
        "repeat = 2\n"
        "\n"
        "[beta]\n"
        "# interior comment\n"
        "empty =\n");
    ASSERT_EQ(doc.sections.size(), 2u);
    EXPECT_EQ(doc.sections[0].name, "alpha");
    EXPECT_EQ(doc.sections[0].line, 3u);
    ASSERT_EQ(doc.sections[0].entries.size(), 4u);
    EXPECT_EQ(doc.sections[0].entries[0].key, "key");
    EXPECT_EQ(doc.sections[0].entries[0].value, "value");
    EXPECT_EQ(doc.sections[0].entries[1].key, "spaced");
    EXPECT_EQ(doc.sections[0].entries[1].value, "inner value");
    EXPECT_EQ(doc.sections[0].entries[1].line, 5u);
    // Repeated keys are preserved in order (list-valued keys).
    EXPECT_EQ(doc.sections[0].entries[2].value, "1");
    EXPECT_EQ(doc.sections[0].entries[3].value, "2");
    ASSERT_NE(doc.find("beta"), nullptr);
    ASSERT_EQ(doc.find("beta")->entries.size(), 1u);
    EXPECT_EQ(doc.find("beta")->entries[0].value, "");
    EXPECT_EQ(doc.find("gamma"), nullptr);
    // Entry lookup: first value wins for repeated keys.
    ASSERT_NE(doc.sections[0].find("repeat"), nullptr);
    EXPECT_EQ(doc.sections[0].find("repeat")->value, "1");
    EXPECT_EQ(doc.sections[0].find("absent"), nullptr);
}

TEST(ScenarioFormat, RejectsMalformedInputWithLineNumbers)
{
    const auto fatal = [](const char *text) -> std::string {
        try {
            campaign::parseScenarioText(text);
        } catch (const sim::FatalError &e) {
            return e.what();
        }
        return {};
    };
    // Content before any section header.
    EXPECT_NE(fatal("key = value\n").find("line 1"), std::string::npos);
    // A line that is neither a header nor key = value.
    EXPECT_NE(fatal("[s]\njust words\n").find("line 2"),
              std::string::npos);
    // Malformed header.
    EXPECT_THROW(campaign::parseScenarioText("[oops\n"),
                 sim::FatalError);
    // Bad section / key characters (uppercase, dashes).
    EXPECT_THROW(campaign::parseScenarioText("[Sec]\n"),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenarioText("[s]\nBad-Key = 1\n"),
                 sim::FatalError);
    // Duplicate section names.
    EXPECT_THROW(campaign::parseScenarioText("[s]\n[t]\n[s]\n"),
                 sim::FatalError);
    // Empty key.
    EXPECT_THROW(campaign::parseScenarioText("[s]\n= value\n"),
                 sim::FatalError);
}

TEST(ScenarioFormat, SerializeParseRoundTripIsExact)
{
    campaign::ScenarioDoc doc;
    doc.sections.push_back(
        {"one", {{"a", "1", 0}, {"b", "two words", 0}}, 0});
    doc.sections.push_back({"two", {{"c", "", 0}}, 0});
    const std::string bytes = campaign::serializeScenarioDoc(doc);
    const auto reparsed = campaign::parseScenarioText(bytes);
    EXPECT_EQ(campaign::serializeScenarioDoc(reparsed), bytes);
}

// -------------------------------------------------- axis expressions

TEST(AxisExpression, ParsesNamesKnobsAndQuotedValues)
{
    const auto e = campaign::parseAxisExpression(
        "Hot Spot mean_think=2000 label=\"two words\"", "workload");
    EXPECT_EQ(e.name, "Hot Spot");
    ASSERT_EQ(e.knobs.size(), 2u);
    EXPECT_EQ(e.knobs[0].first, "mean_think");
    EXPECT_EQ(e.knobs[0].second, "2000");
    EXPECT_EQ(e.knobs[1].second, "two words");
    // Canonical form re-quotes values with spaces and single-spaces
    // the expression; re-parsing it reproduces the same structure.
    const std::string canonical = campaign::canonicalExpression(e);
    EXPECT_EQ(canonical, "Hot Spot mean_think=2000 label=\"two words\"");
    const auto again =
        campaign::parseAxisExpression(canonical, "workload");
    EXPECT_EQ(campaign::canonicalExpression(again), canonical);
}

TEST(AxisExpression, RejectsMalformedExpressions)
{
    EXPECT_THROW(campaign::parseAxisExpression("", "workload"),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseAxisExpression("   ", "workload"),
                 sim::FatalError);
    // A bare name token after the first knob is a lost word, not a
    // second expression.
    EXPECT_THROW(
        campaign::parseAxisExpression("XBar/OCM clusters=64 oops",
                                      "config"),
        sim::FatalError);
    EXPECT_THROW(
        campaign::parseAxisExpression("name BAD=1", "config"),
        sim::FatalError);
    EXPECT_THROW(
        campaign::parseAxisExpression("name label=\"unterminated",
                                      "config"),
        sim::FatalError);
}

// ----------------------------------------- scenario parse/serialize

const char *const kFullScenario =
    "[scenario]\n"
    "name = full\n"
    "requests = 1000\n"
    "warmup_requests = 200\n"
    "seed_policy = derived\n"
    "seeds = 0,1,2\n"
    "\n"
    "[workloads]\n"
    "workload = Uniform\n"
    "workload = Barnes\n"
    "\n"
    "[configs]\n"
    "config = XBar/OCM\n"
    "config = HMesh/ECM memory_bandwidth_scale=2\n"
    "\n"
    "[overrides]\n"
    "override = base\n"
    "override = cold warmup_requests=0\n"
    "\n"
    "[execution]\n"
    "threads = 2\n"
    "checkpoint = /tmp/full.ckpt\n"
    "csv = /tmp/full.csv\n"
    "progress = off\n"
    "reuse_systems = off\n";

TEST(Scenario, ParseSerializeParseIsByteStable)
{
    const auto spec = campaign::parseScenario(kFullScenario);
    const std::string bytes = campaign::serializeScenario(spec);
    const auto reparsed = campaign::parseScenario(bytes);
    EXPECT_EQ(campaign::serializeScenario(reparsed), bytes);
    // The canonical form preserves every field of the original.
    EXPECT_EQ(reparsed.name, "full");
    EXPECT_EQ(reparsed.requests, 1000u);
    EXPECT_EQ(reparsed.warmup_requests, 200u);
    EXPECT_EQ(reparsed.seeds, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(reparsed.workloads,
              (std::vector<std::string>{"Uniform", "Barnes"}));
    EXPECT_EQ(reparsed.execution.threads, 2u);
    EXPECT_EQ(reparsed.execution.checkpoint, "/tmp/full.ckpt");
    EXPECT_EQ(reparsed.execution.csv, "/tmp/full.csv");
    EXPECT_FALSE(reparsed.execution.progress);
    EXPECT_FALSE(reparsed.execution.reuse_systems);
}

TEST(Scenario, ReuseSystemsDefaultsOnAndIsOmittedFromSerialisation)
{
    campaign::ScenarioSpec spec;
    spec.workloads = {"Uniform"};
    spec.configs = {"XBar/OCM"};
    EXPECT_TRUE(spec.execution.reuse_systems);
    EXPECT_EQ(campaign::serializeScenario(spec).find("reuse_systems"),
              std::string::npos);
}

TEST(Scenario, SerializationOmitsDefaults)
{
    campaign::ScenarioSpec spec;
    spec.workloads = {"Uniform"};
    spec.configs = {"XBar/OCM"};
    const std::string bytes = campaign::serializeScenario(spec);
    // No seeds, no overrides, no [execution] section, no warmup.
    EXPECT_EQ(bytes.find("seeds"), std::string::npos);
    EXPECT_EQ(bytes.find("[overrides]"), std::string::npos);
    EXPECT_EQ(bytes.find("[execution]"), std::string::npos);
    EXPECT_EQ(bytes.find("warmup_requests"), std::string::npos);
    EXPECT_EQ(campaign::serializeScenario(campaign::parseScenario(bytes)),
              bytes);
}

/** Replace one line of the known-good scenario (prefix match). */
std::string
withLine(const std::string &match, const std::string &replacement)
{
    std::istringstream in(kFullScenario);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(match, 0) == 0)
            out << replacement << "\n";
        else
            out << line << "\n";
    }
    return out.str();
}

/** The fatal parseScenario(@p text) raises, or "" when it parses. */
std::string
parseError(const std::string &text)
{
    try {
        campaign::parseScenario(text);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return {};
}

TEST(Scenario, RejectsUnknownSectionsKeysAndBadValues)
{
    // Baseline sanity: the template itself parses.
    EXPECT_NO_THROW(campaign::parseScenario(kFullScenario));

    EXPECT_THROW(campaign::parseScenario(std::string(kFullScenario) +
                                         "\n[mystery]\nkey = 1\n"),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine("name =", "typo_key = x")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("requests =", "requests = 0")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("requests =", "requests = -5")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "seed_policy =", "seed_policy = sometimes")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("seeds =", "seeds = 1,x")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "threads = many")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("progress =", "progress = maybe")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine("reuse_systems =",
                                         "reuse_systems = maybe")),
        sim::FatalError);
    // Not a key: a campaign runs its whole grid in one process.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "shard = 1/2")),
                 sim::FatalError);
    // Neither jsonl nor heartbeat is a key: each stops at the
    // unknown-key fatal, which names its line.
    {
        const std::string error =
            parseError(withLine("threads =", "jsonl = x.jsonl"));
        EXPECT_NE(error.find("line 21: unknown key \"jsonl\""),
                  std::string::npos)
            << error;
    }
    {
        const std::string error =
            parseError(std::string(kFullScenario) +
                       "\n[observability]\nheartbeat = on\n");
        EXPECT_NE(error.find("line 28: unknown key \"heartbeat\""),
                  std::string::npos)
            << error;
    }
    // The analytical model is not an executor: every cell simulates.
    for (const char *gone :
         {"executor = magic", "executor = model", "calibration = f.csv"}) {
        const std::string error = parseError(withLine("threads =", gone));
        EXPECT_NE(error.find("line 21: unknown key"), std::string::npos)
            << gone << ": " << error;
    }
    // A count that does not fit its field is fatal, not truncated.
    for (const char *huge :
         {"sim_threads = 4294967296", "sim_threads = 4294967297"}) {
        const std::string error = parseError(withLine("threads =", huge));
        EXPECT_NE(error.find("line 21: sim_threads"), std::string::npos)
            << huge << ": " << error;
    }
    EXPECT_EQ(campaign::parseScenario(
                  withLine("threads =", "sim_threads = 4294967295"))
                  .execution.sim_threads,
              4294967295u);
    // Duplicate scalar key within a section.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("name =", "name = a\nname = b")),
                 sim::FatalError);
    // A stray key in a list section.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("workload = Uniform", "config = XBar/OCM")),
                 sim::FatalError);
    // Missing mandatory sections.
    EXPECT_THROW(campaign::parseScenario("[scenario]\nname = x\n"),
                 sim::FatalError);
}

TEST(Scenario, RejectsUnknownRegistryNamesAndKnobsAtParseTime)
{
    // A scenario that parses is a scenario that runs: resolution
    // errors surface from parseScenario, not later on a worker.
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Uniform", "workload = Quake")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "workload = Uniform", "workload = Uniform warp=9")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "config = XBar/OCM", "config = XBar/Quantum")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "config = XBar/OCM", "config = XBar/OCM flux=1")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "config = XBar/OCM",
                     "config = XBar/OCM clusters=65")), // not square
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "override = base", "override = base thread_window=4")),
        sim::FatalError); // a config knob, not a SimParams knob
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Uniform",
                     "workload = Uniform clusters=65")), // not square
                 sim::FatalError);
    // A knob value that does not fit its 32-bit field is fatal, not
    // truncated (4294967360 would wrap to 64).
    for (const char *knob : {"bytes_per_clock", "l1_kib", "l1_assoc",
                             "l2_kib", "l2_assoc", "cache_line"}) {
        const std::string config =
            std::string("config = XBar/OCM ") + knob + "=4294967360";
        const std::string error =
            parseError(withLine("config = XBar/OCM", config));
        EXPECT_NE(error.find(std::string("knob ") + knob),
                  std::string::npos)
            << config << ": " << error;
    }
}

TEST(Scenario, RejectsAnOverflowingBudgetAtParseTime)
{
    // warmup_requests + requests must fit 64 bits. expand() refuses
    // such a run, and so must the parse behind --print and --dry-run.
    const std::string base =
        "[scenario]\n"
        "name = budget\n"
        "requests = 2000\n"
        "warmup_requests = 18446744073709550616\n"
        "[workloads]\n"
        "workload = Uniform\n"
        "[configs]\n"
        "config = XBar/OCM\n";
    std::string error = parseError(base);
    for (const char *part : {"campaign \"budget\"",
                             "warmup_requests 18446744073709550616",
                             "requests 2000", "overflows"})
        EXPECT_NE(error.find(part), std::string::npos) << error;

    // The same sum through an override (the template's requests are
    // 1000, so one more than 2^64 - 1 - 1000 overflows).
    error = parseError(withLine(
        "override = cold",
        "override = cold warmup_requests=18446744073709550616"));
    for (const char *part : {"override \"cold\"",
                             "warmup_requests 18446744073709550616",
                             "requests 1000"})
        EXPECT_NE(error.find(part), std::string::npos) << error;

    // The largest budget that fits parses, in both forms.
    EXPECT_EQ(parseError(withLine(
                  "override = cold",
                  "override = cold warmup_requests=18446744073709550615")),
              "");
    EXPECT_EQ(parseError(withLine("warmup_requests =",
                                  "warmup_requests = "
                                  "18446744073709550615")),
              "");
}

TEST(Scenario, RejectsDuplicateAxisEntriesAtParseTime)
{
    // Duplicates must not wait for the runner's expand(): a scenario
    // that parses (or --dry-runs) cleanly must not die after being
    // distributed.
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Barnes", "workload = Uniform")),
                 sim::FatalError);
    // "paper" already contains XBar/OCM.
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "config = HMesh/ECM memory_bandwidth_scale=2",
            "config = paper")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "override = cold warmup_requests=0",
                     "override = base warmup_requests=0")),
                 sim::FatalError);
}

// ------------------------------------------------------- resolve()

TEST(Scenario, ResolveExpandsRegistryGroupAliases)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"all"};
    scenario.configs = {"paper"};
    const auto spec = scenario.resolve();
    // "all" is the Table-3 suite; the registry additionally holds the
    // sharing-pattern generators, addressable by name only.
    EXPECT_EQ(spec.workloads.size(), 15u);
    EXPECT_GT(workload::registry().size(), spec.workloads.size());
    ASSERT_EQ(spec.configs.size(), 5u);
    for (std::size_t i = 0; i < spec.configs.size(); ++i)
        EXPECT_EQ(spec.configs[i].name(),
                  core::paperConfigNames()[i]);
}

TEST(Scenario, ResolveLabelsKnobbedVariantsDistinctly)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"Uniform"};
    scenario.configs = {
        "XBar/OCM",
        "XBar/OCM memory_bandwidth_scale=2",
        "XBar/OCM memory_bandwidth_scale=4 label=fat",
    };
    const auto spec = scenario.resolve();
    ASSERT_EQ(spec.configs.size(), 3u);
    EXPECT_EQ(spec.configs[0].name(), "XBar/OCM");
    // An unlabelled knobbed variant gets its canonical expression as
    // the axis label, so it can never alias the base point.
    EXPECT_EQ(spec.configs[1].name(),
              "XBar/OCM memory_bandwidth_scale=2");
    EXPECT_EQ(spec.configs[2].name(), "fat");
    // And the grid passes expand()'s duplicate-label check.
    EXPECT_NO_THROW(campaign::expand(spec));
}

TEST(Scenario, ConfigKnobExpressionRoundTrips)
{
    auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    core::applyConfigKnob(config, "clusters", "256");
    core::applyConfigKnob(config, "memory_bandwidth_scale", "2");
    core::applyConfigKnob(config, "label", "big point");
    const std::string expression = core::configKnobExpression(config);
    const auto parsed =
        campaign::parseAxisExpression(expression, "config");
    auto rebuilt = core::namedConfig(parsed.name);
    for (const auto &[key, value] : parsed.knobs)
        core::applyConfigKnob(rebuilt, key, value);
    EXPECT_EQ(rebuilt.name(), config.name());
    EXPECT_EQ(rebuilt.clusters, config.clusters);
    EXPECT_EQ(rebuilt.memory_bandwidth_scale,
              config.memory_bandwidth_scale);
}

// --------------------------------- duplicate-axis-label rejection

campaign::CampaignSpec
tinySpec()
{
    campaign::CampaignSpec spec;
    spec.name = "dup";
    spec.workloads = {{"Uniform", true, workload::makeUniform}};
    spec.configs = {core::makeConfig(core::NetworkKind::XBar,
                                     core::MemoryKind::OCM)};
    spec.base.requests = 100;
    return spec;
}

TEST(CampaignSpec, ExpandRejectsDuplicateWorkloadNames)
{
    auto spec = tinySpec();
    spec.workloads.push_back(spec.workloads.front());
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
}

TEST(CampaignSpec, ExpandRejectsDuplicateConfigLabels)
{
    auto spec = tinySpec();
    // Two knob variants of one base config that were never labelled:
    // identical name() strings would silently alias checkpoint
    // fingerprint rows and last-wins-merge each other's results.
    auto variant = spec.configs.front();
    variant.memory_bandwidth_scale = 2.0;
    spec.configs.push_back(variant);
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
    // Labelling the variant resolves the collision.
    spec.configs.back().label = "m2";
    EXPECT_NO_THROW(campaign::expand(spec));
}

TEST(CampaignSpec, ExpandRejectsDuplicateOverrideLabels)
{
    auto spec = tinySpec();
    spec.overrides = {
        {"warm", [](core::SimParams &p) { p.warmup_requests = 10; }},
        {"warm", [](core::SimParams &p) { p.warmup_requests = 20; }},
    };
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
}

// ------------------------------------------------- resolve() parity

/** A hand-built slice of the fig9 grid, constructed in C++ from the
 * workload factories rather than the registry — Uniform + FFT on the
 * first two paper configs, fixed seed, warmup = 1/5. */
campaign::CampaignSpec
legacySlice(std::uint64_t requests)
{
    campaign::CampaignSpec spec;
    spec.name = "paper-sweep";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"FFT", false, [] { return workload::makeSplash("FFT"); }},
    };
    auto paper = core::paperConfigs();
    spec.configs = {paper[0], paper[1]};
    spec.base.requests = requests;
    spec.base.warmup_requests = requests / 5;
    spec.seed_policy = campaign::SeedPolicy::Fixed;
    return spec;
}

/** CSV + checkpoint bytes of @p spec run on @p threads threads. */
std::pair<std::string, std::string>
runBytes(const campaign::CampaignSpec &spec, std::size_t threads)
{
    std::ostringstream csv, checkpoint;
    campaign::CsvSink csv_sink(csv);
    campaign::CheckpointWriter checkpoint_sink(checkpoint,
                                               /*write_header=*/true);
    campaign::RunnerOptions options;
    options.threads = threads;
    campaign::CampaignRunner runner(options);
    runner.addSink(csv_sink);
    runner.addSink(checkpoint_sink);
    runner.run(spec);
    return {csv.str(), checkpoint.str()};
}

TEST(Scenario, ResolvedFig9SliceMatchesLegacySpecByteForByte)
{
    const std::string text =
        "[scenario]\n"
        "name = paper-sweep\n"
        "requests = 400\n"
        "warmup_requests = 80\n"
        "seed_policy = fixed\n"
        "\n"
        "[workloads]\n"
        "workload = Uniform\n"
        "workload = FFT\n"
        "\n"
        "[configs]\n"
        "config = " +
        core::paperConfigNames()[0] + "\n" + "config = " +
        core::paperConfigNames()[1] + "\n";
    const auto scenario = campaign::parseScenario(text);
    const auto [scenario_csv, scenario_ckpt] =
        runBytes(scenario.resolve(), 2);
    const auto [legacy_csv, legacy_ckpt] = runBytes(legacySlice(400), 2);
    // Identical sink bytes AND identical checkpoint bytes (including
    // the fingerprint header), so a scenario-driven run can resume
    // from a legacy-driven checkpoint and vice versa.
    EXPECT_EQ(scenario_csv, legacy_csv);
    EXPECT_EQ(scenario_ckpt, legacy_ckpt);
    EXPECT_NE(scenario_csv.find("Uniform"), std::string::npos);
}

TEST(Scenario, RegistryFactoriesMatchLegacyFactoriesAcrossTheTable)
{
    // Beyond the fig9 slice: every registry entry's default factory
    // must behave identically to the legacy hand-built one. One
    // cheap synthetic + one SPLASH + one bursty SPLASH model.
    for (const char *name : {"Tornado", "Cholesky", "Raytrace"}) {
        campaign::CampaignSpec legacy;
        legacy.name = "factory-parity";
        if (std::string(name) == "Tornado")
            legacy.workloads = {{name, true, workload::makeTornado}};
        else
            legacy.workloads = {{name, false, [name] {
                                     return workload::makeSplash(name);
                                 }}};
        legacy.configs = {core::makeConfig(core::NetworkKind::XBar,
                                           core::MemoryKind::OCM)};
        legacy.base.requests = 300;
        legacy.seed_policy = campaign::SeedPolicy::Fixed;

        campaign::CampaignSpec registry = legacy;
        registry.workloads = {{name, legacy.workloads[0].synthetic,
                               workload::registryFactory(name)}};
        EXPECT_EQ(runBytes(registry, 1).first,
                  runBytes(legacy, 1).first)
            << name;
    }
}

// ---------------------------------------------------- runScenario

TEST(ScenarioRun, OutOfRangeBandwidthFailsTheRun)
{
    // At scale 1e-17 one line takes more than 2^63 ticks on an OCM
    // link: the run fails naming the bandwidth instead of reporting
    // scale 1's numbers.
    campaign::ScenarioSpec scenario;
    scenario.requests = 200;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM memory_bandwidth_scale=1e-17"};
    scenario.execution.progress = false;
    const auto result = campaign::runScenario(scenario, {.quiet = true});
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_FALSE(result.records[0].ok);
    EXPECT_NE(result.records[0].error.find("bandwidth 1.6e-06 B/s"),
              std::string::npos)
        << result.records[0].error;
}

// ------------------------------------------------------ core::env

TEST(Env, PositiveCountIsStrict)
{
    unsetenv("CORONA_TEST_ENV");
    EXPECT_FALSE(core::env::positiveCount("CORONA_TEST_ENV"));
    setenv("CORONA_TEST_ENV", "42", 1);
    EXPECT_EQ(core::env::positiveCount("CORONA_TEST_ENV"), 42u);
    for (const char *bad : {"0", "-3", "4x", "", " 5", "garbage", "12moo",
                            "18446744073709551616"}) {
        setenv("CORONA_TEST_ENV", bad, 1);
        EXPECT_THROW(core::env::positiveCount("CORONA_TEST_ENV"),
                     sim::FatalError)
            << "\"" << bad << "\"";
    }
    unsetenv("CORONA_TEST_ENV");
}

} // namespace
