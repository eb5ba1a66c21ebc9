/**
 * @file
 * Unit tests for trace capture and replay.
 *
 * The `.ctrace` container itself is covered in ctrace_test.cc; this
 * file exercises the seams around it — round-robin capture helpers
 * and TraceReplayer's replay semantics (per-thread order, wrapping,
 * loop/thread remap knobs, idle threads).
 */

#include <gtest/gtest.h>

#include <fstream>

#include "trace/ctrace.hh"
#include "trace/replayer.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace {

using namespace corona;
using workload::MissRequest;
using workload::TraceRecord;
using workload::TraceReplayer;

/** Write @p records to a fresh `.ctrace` under the test temp dir. */
std::string
writeCtrace(const std::string &name,
            const std::vector<TraceRecord> &records,
            std::uint32_t threads, trace::WriterOptions options = {})
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    trace::Writer writer(out, threads, name, options);
    for (const TraceRecord &record : records)
        writer.append(record);
    writer.finish();
    return path;
}

TEST(Trace, CaptureReferenceTraceDrawsReferenceStream)
{
    // With the default nextReference forwarding, the reference capture
    // of a synthetic workload is bit-identical to the miss capture at
    // the same seed.
    workload::SyntheticWorkload a(workload::Pattern::Uniform,
                                  topology::Geometry());
    workload::SyntheticWorkload b(workload::Pattern::Uniform,
                                  topology::Geometry());
    const auto misses = workload::captureTrace(a, 256, 7);
    const auto refs = workload::captureReferenceTrace(b, 256, 7);
    ASSERT_EQ(misses.size(), refs.size());
    for (std::size_t i = 0; i < misses.size(); ++i)
        EXPECT_EQ(misses[i], refs[i]);

    trace::WriterOptions options;
    options.reference_stream = true;
    const std::string path =
        writeCtrace("ref_replay.ctrace", refs, 1024, options);
    TraceReplayer replay(path);
    EXPECT_TRUE(replay.referenceStream());
    sim::Rng rng(1);
    EXPECT_EQ(replay.nextReference(0, 0, rng).line, refs[0].line);
}

TEST(Trace, CaptureFromSyntheticWorkload)
{
    workload::SyntheticWorkload uniform(workload::Pattern::Uniform,
                                        topology::Geometry());
    const auto records = workload::captureTrace(uniform, 2048, 5);
    EXPECT_EQ(records.size(), 2048u);
    // Every record is well-formed.
    for (const auto &r : records) {
        EXPECT_LT(r.thread, 1024u);
        EXPECT_LT(r.home, 64u);
        EXPECT_EQ(r.line % 64, 0u);
    }
}

TEST(Trace, ReplayPreservesPerThreadOrder)
{
    std::vector<TraceRecord> records;
    for (std::uint32_t i = 0; i < 6; ++i) {
        TraceRecord r{};
        r.thread = i % 2;
        r.home = i;
        r.line = i * 64;
        r.think_time = 10 * (i + 1);
        records.push_back(r);
    }
    const std::string path =
        writeCtrace("order.ctrace", records, 2);
    TraceReplayer replay(path);
    EXPECT_EQ(replay.threads(), 2u);
    EXPECT_EQ(replay.paperRequests(), 6u);
    sim::Rng rng(1);
    // Thread 0 sees records 0, 2, 4 in order.
    EXPECT_EQ(replay.next(0, 0, rng).line, 0u);
    EXPECT_EQ(replay.next(0, 0, rng).line, 2u * 64);
    EXPECT_EQ(replay.next(0, 0, rng).line, 4u * 64);
    // ...then wraps around.
    EXPECT_EQ(replay.next(0, 0, rng).line, 0u);
    // Thread 1 sees records 1, 3, 5.
    EXPECT_EQ(replay.next(1, 0, rng).line, 1u * 64);
}

TEST(Trace, ReplayLoopKnobExhaustsThread)
{
    std::vector<TraceRecord> records;
    for (std::uint32_t i = 0; i < 3; ++i) {
        TraceRecord r{};
        r.thread = 0;
        r.line = (i + 1) * 64;
        r.think_time = 5;
        records.push_back(r);
    }
    const std::string path = writeCtrace("loop.ctrace", records, 1);
    workload::TraceReplayOptions options;
    options.loop = 2;
    TraceReplayer replay(path, options);
    sim::Rng rng(1);
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint32_t i = 0; i < 3; ++i)
            EXPECT_EQ(replay.next(0, 0, rng).line, (i + 1) * 64u);
    }
    // The loop budget is spent: the thread idles from here on.
    EXPECT_GE(replay.next(0, 0, rng).think_time, sim::oneSecond);
    EXPECT_GE(replay.next(0, 0, rng).think_time, sim::oneSecond);

    // reset() restores the pristine replay (pooling contract).
    replay.reset();
    EXPECT_EQ(replay.next(0, 0, rng).line, 64u);
}

TEST(Trace, ReplayThreadRemapWrapsOntoTraceThreads)
{
    std::vector<TraceRecord> records;
    for (std::uint32_t t = 0; t < 2; ++t) {
        TraceRecord r{};
        r.thread = t;
        r.line = (t + 1) * 640;
        r.think_time = 5;
        records.push_back(r);
    }
    const std::string path = writeCtrace("remap.ctrace", records, 2);
    workload::TraceReplayOptions options;
    options.threads = 4;
    TraceReplayer replay(path, options);
    EXPECT_EQ(replay.threads(), 4u);
    sim::Rng rng(1);
    // Slot 2 consumes trace thread 0's stream from its own start,
    // independent of slot 0's cursor.
    EXPECT_EQ(replay.next(0, 0, rng).line, 640u);
    EXPECT_EQ(replay.next(2, 0, rng).line, 640u);
    EXPECT_EQ(replay.next(3, 0, rng).line, 1280u);
}

TEST(Trace, ReplayTimeScaleStretchesThink)
{
    std::vector<TraceRecord> records;
    TraceRecord r{};
    r.thread = 0;
    r.line = 64;
    r.think_time = 1000;
    records.push_back(r);
    const std::string path = writeCtrace("scale.ctrace", records, 1);
    workload::TraceReplayOptions options;
    options.time_scale = 2.5;
    TraceReplayer replay(path, options);
    sim::Rng rng(1);
    EXPECT_EQ(replay.next(0, 0, rng).think_time, 2500u);
}

TEST(Trace, ReplayedWorkloadMatchesSource)
{
    workload::SyntheticWorkload hot(workload::Pattern::HotSpot,
                                    topology::Geometry());
    const auto records = workload::captureTrace(hot, 512, 9);
    const std::string path =
        writeCtrace("hotspot.ctrace", records, 1024);
    TraceReplayer replay(path);
    sim::Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const MissRequest req = replay.next(static_cast<std::size_t>(i),
                                            0, rng);
        // Hot Spot traffic all goes to cluster 0 (or idles when the
        // thread drew no records).
        if (req.line != 0 || req.home != 0) {
            EXPECT_EQ(req.home, 0u);
        }
    }
}

TEST(Trace, EmptyTraceIdles)
{
    const std::string path = writeCtrace("empty.ctrace", {}, 4);
    const trace::TraceInfo info = trace::readTraceInfo(path);
    EXPECT_EQ(info.records, 0u);
    TraceReplayer replay(path);
    sim::Rng rng(1);
    const MissRequest req = replay.next(0, 0, rng);
    EXPECT_GE(req.think_time, sim::oneSecond);
    EXPECT_DOUBLE_EQ(replay.offeredBytesPerSecond(), 0.0);
}

} // namespace
