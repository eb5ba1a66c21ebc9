#include "workload/trace.hh"

namespace corona::workload {

namespace {

template <typename NextFn>
std::vector<TraceRecord>
captureStream(Workload &workload, std::uint64_t requests,
              std::uint64_t seed, NextFn next)
{
    sim::Rng rng(seed);
    std::vector<TraceRecord> records;
    records.reserve(requests);
    const std::size_t threads = workload.threads();
    std::vector<sim::Tick> clocks(threads, 0);
    for (std::uint64_t i = 0; i < requests; ++i) {
        const std::size_t thread = i % threads;
        const MissRequest req = next(thread, clocks[thread], rng);
        clocks[thread] += req.think_time;
        TraceRecord record;
        record.thread = static_cast<std::uint32_t>(thread);
        record.home = static_cast<std::uint32_t>(req.home);
        record.line = req.line;
        record.think_time = req.think_time;
        record.write = req.write ? 1 : 0;
        records.push_back(record);
    }
    return records;
}

} // namespace

std::vector<TraceRecord>
captureTrace(Workload &workload, std::uint64_t requests, std::uint64_t seed)
{
    return captureStream(
        workload, requests, seed,
        [&workload](std::size_t thread, sim::Tick now, sim::Rng &rng) {
            return workload.next(thread, now, rng);
        });
}

std::vector<TraceRecord>
captureReferenceTrace(Workload &workload, std::uint64_t requests,
                      std::uint64_t seed)
{
    return captureStream(
        workload, requests, seed,
        [&workload](std::size_t thread, sim::Tick now, sim::Rng &rng) {
            return workload.nextReference(thread, now, rng);
        });
}

} // namespace corona::workload
