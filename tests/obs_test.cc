/**
 * @file
 * Tests for the observability subsystem (src/obs): registry path
 * discipline and snapshots, the event-tracer ring, sampler
 * termination, the binary readers' bounds on forged length fields,
 * the loaders' refusal of anything but a container, the RunObserver
 * lifecycle against pooled contexts, and
 * the end-to-end determinism contracts — observability output bytes
 * identical across worker counts, and sink/checkpoint bytes identical
 * with observability on vs off.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/config.hh"
#include "corona/context.hh"
#include "corona/simulation.hh"
#include "fresh_runs.hh"
#include "obs/heartbeat.hh"
#include "obs/observe.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "test_dir.hh"
#include "workload/registry.hh"

// This binary refuses single allocations above 256 MiB. No test here
// needs one, so a reader that sizes a buffer by a forged length field
// fails fast with std::bad_alloc instead of zero-filling gigabytes.
// Every non-aligned form is replaced, so each block is allocated and
// released through the malloc/free pair (ASan checks the pairing).

namespace {

void *
guardedAlloc(std::size_t bytes) noexcept
{
    if (bytes > (std::size_t{256} << 20))
        return nullptr;
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
guardedNew(std::size_t bytes)
{
    if (void *block = guardedAlloc(bytes))
        return block;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t bytes) { return guardedNew(bytes); }
void *operator new[](std::size_t bytes) { return guardedNew(bytes); }
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return guardedAlloc(bytes);
}
void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return guardedAlloc(bytes);
}
void operator delete(void *block) noexcept { std::free(block); }
void operator delete[](void *block) noexcept { std::free(block); }
void operator delete(void *block, std::size_t) noexcept { std::free(block); }
void operator delete[](void *block, std::size_t) noexcept
{
    std::free(block);
}
void
operator delete(void *block, const std::nothrow_t &) noexcept
{
    std::free(block);
}
void
operator delete[](void *block, const std::nothrow_t &) noexcept
{
    std::free(block);
}

namespace {

using namespace corona;

// ---------------------------------------------------------------------
// Registry.

TEST(Registry, ReadsProbesInRegistrationOrder)
{
    obs::Registry registry;
    double value = 1.5;
    registry.add("a/first", [&value] { return value; });
    registry.add("a/second", [] { return 2.0; });
    ASSERT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.probes()[0].path, "a/first");
    EXPECT_EQ(registry.probes()[1].path, "a/second");

    std::vector<double> values = registry.read();
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[0], 1.5);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    value = 3.0; // Probes are live reads, not captures of a value.
    EXPECT_DOUBLE_EQ(registry.read()[0], 3.0);
}

TEST(Registry, RejectsDuplicateAndMalformedPaths)
{
    obs::Registry registry;
    registry.add("mc/0/depth", [] { return 0.0; });
    EXPECT_THROW(registry.add("mc/0/depth", [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_THROW(registry.add("", [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_THROW(registry.add("/leading", [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_THROW(registry.add("trailing/", [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_THROW(registry.add("double//slash", [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_THROW(registry.add("Upper/case", [] { return 0.0; }),
                 sim::FatalError);
    // The binary time-series format caps a path at 255 bytes.
    EXPECT_THROW(registry.add(std::string(256, 'a'), [] { return 0.0; }),
                 sim::FatalError);
    EXPECT_NO_THROW(
        registry.add(std::string(255, 'a'), [] { return 0.0; }));
}

TEST(Registry, SnapshotCsvIsPathValueRows)
{
    obs::Registry registry;
    registry.add("x/count", [] { return 42.0; });
    registry.add("x/ratio", [] { return 0.5; });
    std::ostringstream csv;
    registry.writeSnapshotCsv(csv);
    EXPECT_EQ(csv.str(), "path,value\nx/count,42\nx/ratio,0.5\n");
}

TEST(Registry, AddStatsRegistersTheFourMoments)
{
    stats::RunningStats stats;
    stats.sample(1.0);
    stats.sample(3.0);
    obs::Registry registry;
    registry.addStats("w", stats);
    ASSERT_EQ(registry.size(), 4u);
    EXPECT_EQ(registry.probes()[0].path, "w/count");
    EXPECT_EQ(registry.probes()[1].path, "w/mean");
    EXPECT_EQ(registry.probes()[2].path, "w/min");
    EXPECT_EQ(registry.probes()[3].path, "w/max");
    const std::vector<double> values = registry.read();
    EXPECT_DOUBLE_EQ(values[0], 2.0);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    EXPECT_DOUBLE_EQ(values[2], 1.0);
    EXPECT_DOUBLE_EQ(values[3], 3.0);
}

// ---------------------------------------------------------------------
// Event tracer ring.

TEST(EventTracer, KeepsTheNewestEventsWhenFull)
{
    obs::EventTracer tracer(3);
    for (std::uint32_t i = 0; i < 5; ++i)
        tracer.record(obs::TraceKind::McIssue, i, i * 10, i * 10 + 5);
    EXPECT_EQ(tracer.capacity(), 3u);
    EXPECT_EQ(tracer.size(), 3u);
    EXPECT_EQ(tracer.recorded(), 5u);
    EXPECT_EQ(tracer.dropped(), 2u);

    const std::vector<obs::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    // Oldest surviving first: events 2, 3, 4.
    EXPECT_EQ(events[0].actor, 2u);
    EXPECT_EQ(events[2].actor, 4u);

    tracer.reset();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, ChromeJsonIsDeterministicIntegerMicroseconds)
{
    obs::EventTracer tracer(4);
    tracer.record(obs::TraceKind::ChannelGrant, 7, 1, 1'000'001, 3);
    std::ostringstream json;
    obs::writeChromeTraceJson(json, tracer.events());
    EXPECT_EQ(json.str(),
              "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
              "{\"name\":\"channel_grant\",\"cat\":\"xbar\","
              "\"ph\":\"X\",\"ts\":0.000001,\"dur\":1,"
              "\"pid\":0,\"tid\":7,\"args\":{\"aux\":3}}]}\n");
}

TEST(EventTracer, RejectsZeroCapacity)
{
    EXPECT_THROW(obs::EventTracer(0), std::invalid_argument);
}

TEST(EventTracer, BinaryRoundTripsToTheRecordedEvents)
{
    // Capacity 3 for four spans: the ring wraps, so the decoded trace
    // must carry the lifetime count beside the three held events.
    obs::EventTracer tracer(3);
    tracer.record(obs::TraceKind::McIssue, 1, 0, 4, 2);
    tracer.record(obs::TraceKind::ChannelGrant, 7, 1, 1'000'001, 3);
    tracer.record(obs::TraceKind::CohInval, 2, 10, 12, 1);
    tracer.record(obs::TraceKind::CohWriteback, 5, 20, 20, 9);

    std::string binary;
    tracer.appendBinary(binary);
    std::istringstream in(binary);
    const obs::TraceData data = obs::readTraceBinary(in, "trace test");
    EXPECT_EQ(data.recorded, 4u);
    const std::vector<obs::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    ASSERT_EQ(data.events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(data.events[i].start, events[i].start) << i;
        EXPECT_EQ(data.events[i].end, events[i].end) << i;
        EXPECT_EQ(data.events[i].actor, events[i].actor) << i;
        EXPECT_EQ(data.events[i].aux, events[i].aux) << i;
        EXPECT_EQ(data.events[i].kind, events[i].kind) << i;
    }
}

TEST(ChromeTrace, EmitsCounterTracksForTimeSeriesProbes)
{
    obs::TimeSeriesData data;
    data.period = 5;
    data.paths = {"xbar/ch/0/busy", "mc/0/depth"};
    data.ticks = {0, 5};
    data.values = {0.5, 1, 0.75, 2};

    std::ostringstream os;
    obs::writeChromeTraceJson(os, {}, &data);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"xbar/ch/0/busy\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"probe\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":0.75"), std::string::npos);

    // A prefix keeps only the matching probes' tracks.
    std::ostringstream filtered;
    obs::writeChromeTraceJson(filtered, {}, &data, "mc/");
    EXPECT_EQ(filtered.str().find("xbar/"), std::string::npos);
    EXPECT_NE(filtered.str().find("\"name\":\"mc/0/depth\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Time-series sampler.

TEST(TimeSeriesSampler, SamplesPeriodicallyAndStopsWithTheQueue)
{
    sim::EventQueue eq;
    obs::Registry registry;
    std::uint64_t work_done = 0;
    registry.add("work", [&work_done] {
        return static_cast<double>(work_done);
    });

    // Simulation work at t=5, 15, 25: three sampler periods of 10
    // cover it, and the queue must still drain (the sampler may not
    // keep rescheduling forever).
    for (sim::Tick t : {5, 15, 25})
        eq.schedule(t, [&work_done] { ++work_done; });

    obs::TimeSeriesSampler sampler(registry, eq, 10);
    sampler.start();
    eq.run();
    EXPECT_TRUE(eq.empty());

    ASSERT_GE(sampler.rowCount(), 3u);
    ASSERT_EQ(sampler.probeCount(), 1u);
    EXPECT_EQ(sampler.rowTick(0), 0u);  // t=0 sample.
    EXPECT_EQ(sampler.value(0, 0), 0.0);
    EXPECT_EQ(sampler.value(sampler.rowCount() - 1, 0),
              3.0); // All work observed.
    EXPECT_EQ(sampler.rowTick(1), 10u);
    EXPECT_EQ(sampler.value(1, 0), 1.0); // The t=5 work only.
}

TEST(TimeSeriesSampler, BinaryRoundTripsToTheSampledRows)
{
    sim::EventQueue eq;
    obs::Registry registry;
    std::uint64_t work = 0;
    registry.add("a/count",
                 [&work] { return static_cast<double>(work); });
    registry.add("a/half", [&work] { return work / 2.0; });
    for (sim::Tick t : {3, 7, 21, 35})
        eq.schedule(t, [&work] { ++work; });

    obs::TimeSeriesSampler sampler(registry, eq, 10);
    sampler.start();
    eq.run();

    // The compact encoding loses nothing: every tick and every value
    // decodes to exactly what the sampler recorded.
    std::string binary;
    sampler.appendBinary(binary);
    std::istringstream in(binary);
    const obs::TimeSeriesData data =
        obs::readTimeSeriesBinary(in, "sampler test");
    EXPECT_EQ(data.period, sampler.period());
    EXPECT_EQ(data.paths,
              (std::vector<std::string>{"a/count", "a/half"}));
    ASSERT_EQ(data.rows(), sampler.rowCount());
    ASSERT_EQ(data.values.size(), data.rows() * sampler.probeCount());
    for (std::size_t row = 0; row < data.rows(); ++row) {
        EXPECT_EQ(data.ticks[row], sampler.rowTick(row)) << row;
        for (std::size_t p = 0; p < sampler.probeCount(); ++p)
            EXPECT_EQ(data.values[row * sampler.probeCount() + p],
                      sampler.value(row, p))
                << row << "," << p;
    }

    // corona-stats export renders the decoded rows as columnar CSV.
    std::ostringstream csv;
    obs::writeTimeSeriesCsv(csv, data);
    EXPECT_EQ(csv.str(), "tick,a/count,a/half\n"
                         "0,0,0\n10,2,1\n20,2,1\n30,3,1.5\n40,4,2\n");
}

// ---------------------------------------------------------------------
// Forged length fields: a declared size larger than the bytes that
// follow is a located FatalError, never an allocation of that size.

/** @p magic followed by @p fields as raw little-endian u64s. */
std::string
forgedFile(const char *magic, std::initializer_list<std::uint64_t> fields)
{
    std::string bytes(magic, 8);
    for (const std::uint64_t field : fields)
        bytes.append(reinterpret_cast<const char *>(&field),
                     sizeof(field));
    return bytes;
}

/** The FatalError message @p fn throws ("" when it returns). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(ObsBinaryReaders, TimeSeriesRowsBeyondTheFileAreFatal)
{
    // 40 bytes: period 10, no probes, 10^9 rows (an 8 GB tick column),
    // an empty path table.
    std::istringstream in(forgedFile(obs::timeSeriesMagic,
                                     {10, 0, 1'000'000'000, 0}));
    EXPECT_EQ(fatalMessage([&] { obs::readTimeSeriesBinary(in, "ts"); }),
              "fatal: ts: truncated tick column");
}

TEST(ObsBinaryReaders, TimeSeriesPathOverTheLimitIsFatal)
{
    // Two probes, no rows. The second path-table entry shares all 200
    // bytes of the first path and appends 100 more: each suffix is
    // small, but the decoded path would be 300 bytes.
    std::string table = {'\0', '\xc8', '\x01'}; // shared 0, suffix 200
    table += std::string(200, 'a');
    table += {'\xc8', '\x01', '\x64'}; // shared 200, suffix 100
    table += std::string(100, 'b');
    std::string bytes = forgedFile(obs::timeSeriesMagic,
                                   {10, 2, 0, table.size()});
    bytes += table;
    bytes += std::string(8, '\0'); // An empty value block.
    std::istringstream in(bytes);
    EXPECT_EQ(fatalMessage([&] { obs::readTimeSeriesBinary(in, "ts"); }),
              "fatal: ts: corrupt probe path table");
}

TEST(ObsContainer, BarePlaneFilesAreFatal)
{
    // Each plane's own encoding, written alone instead of as a
    // container section, is refused naming the path.
    sim::EventQueue eq;
    obs::Registry registry;
    registry.add("a/one", [] { return 1.0; });
    eq.schedule(5, [] {});
    obs::TimeSeriesSampler sampler(registry, eq, 10);
    sampler.start();
    eq.run();
    obs::EventTracer tracer(4);
    tracer.record(obs::TraceKind::McIssue, 0, 1, 2);

    const test::TestDir scratch;
    const std::string dir = scratch.path().string();
    const std::string series_file = dir + "/run.timeseries.bin";
    const std::string trace_file = dir + "/run.trace.bin";
    std::string series_bytes, trace_bytes;
    sampler.appendBinary(series_bytes);
    tracer.appendBinary(trace_bytes);
    std::ofstream(series_file, std::ios::binary) << series_bytes;
    std::ofstream(trace_file, std::ios::binary) << trace_bytes;

    EXPECT_EQ(
        fatalMessage([&] { obs::loadTimeSeriesFile(series_file); }),
        "fatal: " + series_file + ": not an observability container");
    EXPECT_EQ(fatalMessage([&] { obs::loadTraceFile(trace_file); }),
              "fatal: " + trace_file + ": not an observability container");
}

TEST(ObsBinaryReaders, TracePayloadBeyondTheFileIsFatal)
{
    // 32 bytes: no events, but a 5 * 10^9-byte payload.
    std::istringstream in(
        forgedFile(obs::traceMagic, {0, 0, 5'000'000'000}));
    EXPECT_EQ(fatalMessage([&] { obs::readTraceBinary(in, "tr"); }),
              "fatal: tr: truncated binary trace records");
}

// ---------------------------------------------------------------------
// RunObserver lifecycle + instrumented-run parity.

core::SimParams
tinyParams(std::uint64_t requests = 300, std::uint64_t seed = 5)
{
    core::SimParams params;
    params.requests = requests;
    params.seed = seed;
    return params;
}

TEST(RunObserver, ObservedRunMetricsMatchAnUnobservedRun)
{
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    auto w1 = workload::registryFactory("Uniform")();
    const auto plain = core::runExperiment(config, *w1, tinyParams());

    const test::TestDir scratch;
    const std::string dir = scratch.path().string();
    obs::RunObservability obs;
    obs.sample_period = 1'000'000;
    obs.trace_capacity = 1024;
    obs.snapshot = true;
    obs.obs_path = dir + "/run.obs.bin";
    obs.snapshot_path = dir + "/run.snapshot.csv";
    auto w2 = workload::registryFactory("Uniform")();
    const auto observed =
        core::runExperiment(config, *w2, tinyParams(), obs);

    // The sampler adds events to the queue, so events_executed grows;
    // every simulated metric must be bit-identical.
    EXPECT_EQ(plain.requests_issued, observed.requests_issued);
    EXPECT_EQ(plain.elapsed, observed.elapsed);
    EXPECT_DOUBLE_EQ(plain.achieved_bytes_per_second,
                     observed.achieved_bytes_per_second);
    EXPECT_DOUBLE_EQ(plain.avg_latency_ns, observed.avg_latency_ns);
    EXPECT_DOUBLE_EQ(plain.token_wait_ns, observed.token_wait_ns);
    EXPECT_GT(observed.events_executed, plain.events_executed);

    // Both files materialised and are non-trivial.
    for (const std::string &path : {obs.obs_path, obs.snapshot_path}) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream bytes;
        bytes << in.rdbuf();
        EXPECT_GT(bytes.str().size(), 10u) << path;
    }
}

TEST(RunObserver, SnapshotListsCacheAndCoherencePaths)
{
    auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;

    const test::TestDir scratch;
    const std::string dir = scratch.path().string();
    obs::RunObservability obs;
    obs.snapshot = true;
    obs.snapshot_path = dir + "/run.snapshot.csv";
    auto w = workload::registryFactory("Uniform")();
    core::runExperiment(config, *w, tinyParams(), obs);

    std::ifstream in(obs.snapshot_path);
    ASSERT_TRUE(in.good());
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string csv = bytes.str();
    // The coherent front end publishes per-cluster cache counters,
    // the protocol message census, and its own traffic counters.
    for (const char *path :
         {"\ncache/0/l1/hits,", "\ncache/0/l2/misses,",
          "\ncache/63/l2/writebacks,", "\ncoherence/msg/gets,",
          "\ncoherence/msg/getm,", "\ncoherence/msg/invalbcast,",
          "\ncoherence/frontend/sideband_messages,",
          "\ncoherence/frontend/broadcasts,",
          "\ncoherence/bus/broadcasts,",
          "\ncoherence/bus/token/grants,"})
        EXPECT_NE(csv.find(path), std::string::npos) << path;
}

TEST(RunObserver, CoherentRunEmitsCoherenceTraceSpans)
{
    auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    // Tiny caches: synthetic lines are unique per thread (no sharing
    // invalidations), so coherence traffic here means dirty-line
    // evictions — force them with capacity pressure.
    config.l1_kib = 1;
    config.l2_kib = 2;

    const test::TestDir scratch;
    const std::string dir = scratch.path().string();
    obs::RunObservability obs;
    obs.trace_capacity = std::size_t{1} << 16;
    obs.obs_path = dir + "/run.obs.bin";
    auto w = workload::registryFactory("Uniform")();
    core::runExperiment(config, *w, tinyParams(6000, 7), obs);

    const obs::TraceData data = obs::loadTraceFile(obs.obs_path);
    std::size_t coherence = 0;
    for (const obs::TraceEvent &event : data.events)
        if (event.kind == obs::TraceKind::CohInval ||
            event.kind == obs::TraceKind::CohForward ||
            event.kind == obs::TraceKind::CohWriteback ||
            event.kind == obs::TraceKind::CohBroadcast)
            ++coherence;
    EXPECT_GT(coherence, 0u);
}

TEST(RunObserver, DetachesTheTracerFromAPooledContext)
{
    const auto config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    core::SystemPool pool;
    core::SimContext &ctx = pool.lease(config);

    obs::RunObservability obs;
    obs.trace_capacity = 64; // No file paths: pure in-memory tracing.
    auto w1 = workload::registryFactory("Uniform")();
    core::runExperiment(ctx, *w1, tinyParams(), obs);

    // The observer died inside runExperiment; a later un-observed run
    // on the same pooled context must not touch the dead tracer.
    core::SimContext &again = pool.lease(config);
    auto w2 = workload::registryFactory("Uniform")();
    const auto metrics = core::runExperiment(again, *w2, tinyParams());
    EXPECT_EQ(metrics.requests_issued, 300u);
}

// ---------------------------------------------------------------------
// Campaign-level determinism.

campaign::CampaignSpec
gridSpec()
{
    campaign::CampaignSpec spec;
    spec.name = "obs-parity";
    spec.workloads = {{"Uniform", true, workload::registryFactory("Uniform")}};
    spec.configs = {
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
    };
    spec.seeds = {0, 1, 2, 3};
    spec.base.requests = 250;
    return spec;
}

std::string
runGridCsv(std::size_t threads, const std::string &obs_dir)
{
    std::ostringstream csv;
    campaign::CsvSink sink(csv);
    campaign::RunnerOptions options;
    options.threads = threads;
    if (!obs_dir.empty()) {
        std::filesystem::create_directories(obs_dir);
        options.observability.sample_period = 500'000;
        options.observability.trace_capacity = 2048;
        options.observability.snapshot = true;
        options.observability.rollup = true;
        options.observability.dir = obs_dir;
    }
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(gridSpec());
    return csv.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(ObservabilityDeterminism, SinkBytesMatchWithObservabilityOnVsOff)
{
    const test::TestDir scratch;
    const std::string dir = scratch.file("obs");
    const std::string off = runGridCsv(2, "");
    const std::string on = runGridCsv(2, dir);
    EXPECT_EQ(off, on);
}

TEST(ObservabilityDeterminism, ObsFilesAreByteIdenticalAt1And4Workers)
{
    const test::TestDir scratch;
    const std::string dir1 = scratch.file("w1");
    const std::string dir4 = scratch.file("w4");
    runGridCsv(1, dir1);
    runGridCsv(4, dir4);

    for (std::size_t run = 0; run < 4; ++run) {
        const std::string stem = "/run" + std::to_string(run);
        for (const char *suffix : {".obs.bin", ".snapshot.csv"}) {
            const std::string a = slurp(dir1 + stem + suffix);
            const std::string b = slurp(dir4 + stem + suffix);
            EXPECT_FALSE(a.empty()) << stem << suffix;
            EXPECT_EQ(a, b) << stem << suffix;
        }
    }
    const std::string rollup = slurp(dir1 + "/rollup.csv");
    EXPECT_FALSE(rollup.empty());
    EXPECT_EQ(rollup, slurp(dir4 + "/rollup.csv"));
}

TEST(ObservabilityDeterminism, ContainerHoldsBothPlanes)
{
    const test::TestDir scratch;
    const std::string dir = scratch.file("obs");
    runGridCsv(1, dir);

    // The per-run container must yield the same planes as explicit
    // single-plane dumps of an identical run would: parse both
    // sections and sanity-check their shapes.
    const std::string path = dir + "/run0.obs.bin";
    const obs::TimeSeriesData series = obs::loadTimeSeriesFile(path);
    EXPECT_EQ(series.period, 500'000u);
    EXPECT_GT(series.paths.size(), 100u);
    EXPECT_GT(series.rows(), 0u);
    EXPECT_EQ(series.values.size(),
              series.rows() * series.paths.size());

    const obs::TraceData trace = obs::loadTraceFile(path);
    EXPECT_GT(trace.events.size(), 0u);
    EXPECT_GE(trace.recorded, trace.events.size());
}

// ---------------------------------------------------------------------
// JsonObject.

TEST(JsonObject, EscapesAndOrdersFields)
{
    const std::string line =
        obs::JsonObject()
            .field("event", "cell")
            .field("name", std::string("a\"b\\c"))
            .field("count", std::uint64_t{7})
            .field("ratio", 0.5)
            .field("ok", true)
            .str();
    EXPECT_EQ(line, "{\"event\":\"cell\",\"name\":\"a\\\"b\\\\c\","
                    "\"count\":7,\"ratio\":0.5,\"ok\":true}");
}

// ---------------------------------------------------------------------
// Workload pooling (satellite: Workload::reset()).

TEST(WorkloadCache, LeasedWorkloadsResetToPristineSequences)
{
    campaign::CampaignSpec spec = gridSpec();
    // Four cells of one workload on one worker: every lease after the
    // first reuses the reset instance, and results must match fresh
    // ones.
    std::ostringstream pooled_csv;
    campaign::CsvSink sink(pooled_csv);
    campaign::RunnerOptions options;
    options.threads = 1;
    campaign::CampaignRunner runner(options);
    runner.addSink(sink);
    runner.run(spec);
    EXPECT_EQ(pooled_csv.str(), test::freshCsv(spec));
}

TEST(WorkloadCache, CountsReuses)
{
    campaign::WorkloadCache cache;
    const campaign::CampaignSpec spec = gridSpec();
    const std::vector<campaign::RunPlan> plans =
        campaign::expand(spec);
    ASSERT_GE(plans.size(), 2u);
    workload::Workload &first = cache.lease(plans[0]);
    workload::Workload &second = cache.lease(plans[1]);
    EXPECT_EQ(&first, &second); // Same workload axis entry → same slot.
    EXPECT_EQ(cache.reuses(), 1u);
}

// ---------------------------------------------------------------------
// Scenario round trip.

TEST(ScenarioObservability, ParsesSerializesAndValidates)
{
    const std::string text = "[scenario]\n"
                             "name = obs-demo\n"
                             "requests = 500\n"
                             "[workloads]\n"
                             "workload = Uniform\n"
                             "[configs]\n"
                             "config = XBar/OCM\n"
                             "[observability]\n"
                             "sample_period = 250000\n"
                             "trace_capacity = 4096\n"
                             "snapshot = on\n"
                             "rollup = on\n"
                             "dir = out/obs\n";
    const campaign::ScenarioSpec spec = campaign::parseScenario(text);
    EXPECT_EQ(spec.observability.sample_period, 250'000u);
    EXPECT_EQ(spec.observability.trace_capacity, 4096u);
    EXPECT_TRUE(spec.observability.snapshot);
    EXPECT_TRUE(spec.observability.rollup);
    EXPECT_EQ(spec.observability.dir, "out/obs");
    EXPECT_TRUE(spec.observability.enabled());

    // Serialise → parse → serialise is byte-stable.
    const std::string serialized = campaign::serializeScenario(spec);
    const campaign::ScenarioSpec reparsed =
        campaign::parseScenario(serialized);
    EXPECT_EQ(campaign::serializeScenario(reparsed), serialized);
}

TEST(ScenarioObservability, DefaultsStayDisabledAndUnserialized)
{
    const std::string text = "[scenario]\n"
                             "name = plain\n"
                             "[workloads]\n"
                             "workload = Uniform\n"
                             "[configs]\n"
                             "config = XBar/OCM\n";
    const campaign::ScenarioSpec spec = campaign::parseScenario(text);
    EXPECT_FALSE(spec.observability.enabled());
    EXPECT_EQ(campaign::serializeScenario(spec)
                  .find("[observability]"),
              std::string::npos);
}

} // namespace
