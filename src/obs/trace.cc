#include "obs/trace.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/varint.hh"
#include "sim/logging.hh"

namespace corona::obs {

const char traceMagic[8] = {'C', 'R', 'N', 'T', 'R', 'B', '1', '\n'};

namespace {

/**
 * On-disk layout after the magic: u64 recorded, u64 count, u64 payload
 * bytes, then one varint-packed record per surviving event in ring
 * order. A record is five varints: zigzag delta of start from the
 * previous record's start, zigzag (end - start), actor, aux, kind.
 * Successive spans sit close together in simulation time, so the
 * deltas stay 1-3 bytes where the old fixed 32-byte records spent
 * mostly zeros — the file is typically 4x smaller, which is what keeps
 * the per-run write cost inside the observability overhead budget.
 * Serialized field by field — never memcpy'd from the struct — so
 * padding can't leak host garbage into the deterministic bytes.
 */
void
packU64(char *at, std::uint64_t value)
{
    std::memcpy(at, &value, sizeof(value));
}

std::uint64_t
unpackU64(const char *at)
{
    std::uint64_t value;
    std::memcpy(&value, at, sizeof(value));
    return value;
}

/**
 * Ticks (picoseconds) as a decimal microsecond count with full tick
 * resolution: "1" for 1'000'000 ticks, "0.000001" for one tick.
 * Integer arithmetic only, so the emitted bytes are deterministic.
 */
void
writeMicroseconds(std::ostream &os, sim::Tick ticks)
{
    constexpr sim::Tick per_us = 1'000'000;
    os << ticks / per_us;
    sim::Tick frac = ticks % per_us;
    if (frac == 0)
        return;
    char digits[6];
    for (int i = 5; i >= 0; --i) {
        digits[i] = static_cast<char>('0' + frac % 10);
        frac /= 10;
    }
    int last = 5;
    while (digits[last] == '0')
        --last; // frac != 0, so a non-zero digit exists.
    os << '.';
    os.write(digits, last + 1);
}

} // namespace

const char *
traceCategory(TraceKind kind)
{
    switch (kind) {
      case TraceKind::ChannelGrant:
      case TraceKind::TokenHandoff:
        return "xbar";
      case TraceKind::McIssue:
      case TraceKind::McComplete:
        return "mc";
      case TraceKind::BarrierWait:
        return "barrier";
      case TraceKind::CohInval:
      case TraceKind::CohForward:
      case TraceKind::CohWriteback:
      case TraceKind::CohBroadcast:
        return "coherence";
      case TraceKind::GrantBatch:
        return "xbar";
    }
    return "other";
}

const char *
traceName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::ChannelGrant:
        return "channel_grant";
      case TraceKind::TokenHandoff:
        return "token_handoff";
      case TraceKind::McIssue:
        return "mc_issue";
      case TraceKind::McComplete:
        return "mc_complete";
      case TraceKind::BarrierWait:
        return "barrier_wait";
      case TraceKind::CohInval:
        return "coh_inval";
      case TraceKind::CohForward:
        return "coh_forward";
      case TraceKind::CohWriteback:
        return "coh_writeback";
      case TraceKind::CohBroadcast:
        return "coh_broadcast";
      case TraceKind::GrantBatch:
        return "grant_batch";
    }
    return "event";
}

TraceData
readTraceBinary(std::istream &is, const std::string &what)
{
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    if (!is || !std::equal(magic, magic + sizeof(magic), traceMagic))
        sim::fatal(what + ": not a binary trace (bad magic)");

    char header[24];
    is.read(header, sizeof(header));
    if (!is)
        sim::fatal(what + ": truncated binary trace header");
    TraceData data;
    data.recorded = unpackU64(header);
    const std::uint64_t count = unpackU64(header + 8);
    const std::uint64_t payload_bytes = unpackU64(header + 16);
    if (count > data.recorded || count > 100'000'000 ||
        payload_bytes > std::uint64_t{100'000'000} * 50)
        sim::fatal(what + ": implausible binary trace event count");
    // An event is five varints of at least one byte each.
    if (payload_bytes > bytesLeft(is) || count > payload_bytes / 5)
        sim::fatal(what + ": truncated binary trace records");

    std::string payload(payload_bytes, '\0');
    is.read(payload.data(),
            static_cast<std::streamsize>(payload_bytes));
    if (!is)
        sim::fatal(what + ": truncated binary trace records");

    data.events.reserve(count);
    const char *at = payload.data();
    const char *end = at + payload.size();
    std::uint64_t prev_start = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t start_delta = 0, end_delta = 0, actor = 0,
                      aux = 0, kind = 0;
        if (!readVarint(at, end, start_delta) ||
            !readVarint(at, end, end_delta) ||
            !readVarint(at, end, actor) || !readVarint(at, end, aux) ||
            !readVarint(at, end, kind))
            sim::fatal(what + ": truncated binary trace records");
        if (kind > static_cast<std::uint64_t>(TraceKind::GrantBatch))
            sim::fatal(what + ": unknown trace event kind");
        const auto start = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(prev_start) +
            unzigzag(start_delta));
        prev_start = start;
        data.events.push_back(TraceEvent{
            start,
            static_cast<std::uint64_t>(
                static_cast<std::int64_t>(start) + unzigzag(end_delta)),
            static_cast<std::uint32_t>(actor),
            static_cast<std::uint32_t>(aux),
            static_cast<TraceKind>(kind)});
    }
    if (at != end)
        sim::fatal(what + ": trailing bytes after binary trace records");
    return data;
}

void
writeChromeTraceJson(std::ostream &os,
                     const std::vector<TraceEvent> &events,
                     const TimeSeriesData *counters,
                     const std::string &counter_prefix)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first_event = true;
    for (const TraceEvent &event : events) {
        if (!first_event)
            os << ',';
        first_event = false;
        os << "{\"name\":\"" << traceName(event.kind)
           << "\",\"cat\":\"" << traceCategory(event.kind)
           << "\",\"ph\":\"X\",\"ts\":";
        writeMicroseconds(os, event.start);
        os << ",\"dur\":";
        writeMicroseconds(os, event.end >= event.start
                                  ? event.end - event.start
                                  : 0);
        os << ",\"pid\":0,\"tid\":" << event.actor
           << ",\"args\":{\"aux\":" << event.aux << "}}";
    }
    if (counters) {
        // One counter ("C") event per sample per selected probe, in
        // time order: Perfetto keys the track on (pid, name), so each
        // probe path becomes its own counter track beside the spans.
        // Probe paths are [a-z0-9_/], JSON-safe without escaping.
        const std::size_t probes = counters->paths.size();
        for (std::size_t row = 0; row < counters->rows(); ++row) {
            for (std::size_t p = 0; p < probes; ++p) {
                const std::string &path = counters->paths[p];
                if (!counter_prefix.empty() &&
                    path.compare(0, counter_prefix.size(),
                                 counter_prefix) != 0)
                    continue;
                if (!first_event)
                    os << ',';
                first_event = false;
                os << "{\"name\":\"" << path
                   << "\",\"cat\":\"probe\",\"ph\":\"C\",\"ts\":";
                writeMicroseconds(os, counters->ticks[row]);
                os << ",\"pid\":0,\"args\":{\"value\":"
                   << formatValue(counters->values[row * probes + p])
                   << "}}";
            }
        }
    }
    os << "]}\n";
}

EventTracer::EventTracer(std::size_t capacity)
{
    if (capacity == 0)
        throw std::invalid_argument("EventTracer: capacity must be > 0");
    _ring.resize(capacity);
}

std::vector<TraceEvent>
EventTracer::events() const
{
    std::vector<TraceEvent> out;
    const std::size_t held = size();
    out.reserve(held);
    // When wrapped, the oldest surviving event sits at _next.
    const std::size_t first =
        _recorded > _ring.size() ? _next : 0;
    for (std::size_t i = 0; i < held; ++i)
        out.push_back(_ring[(first + i) % _ring.size()]);
    return out;
}

void
EventTracer::appendBinary(std::string &out) const
{
    // Size for the worst case (31 bytes per event: 10+10+5+5+1) and
    // trim once: the hot loop is raw pointer stores, no growth checks.
    const std::size_t held = size();
    const std::size_t base = out.size();
    out.resize(base + sizeof(traceMagic) + 24 + held * 31);
    char *at = out.data() + base;
    std::memcpy(at, traceMagic, sizeof(traceMagic));
    at += sizeof(traceMagic);
    char *header = at;
    at += 24;
    // Oldest-first is two linear slices of the ring — [first, end)
    // then [0, first) once wrapped — so no per-event modulo and no
    // events() copy on the per-run write path.
    const std::size_t first = _recorded > _ring.size() ? _next : 0;
    std::uint64_t prev_start = 0;
    const auto encode = [&](const TraceEvent *event,
                            std::size_t count) {
        for (std::size_t i = 0; i < count; ++i, ++event) {
            at = putZigzag(at,
                           static_cast<std::int64_t>(event->start) -
                               static_cast<std::int64_t>(prev_start));
            prev_start = event->start;
            at = putZigzag(at,
                           static_cast<std::int64_t>(event->end) -
                               static_cast<std::int64_t>(event->start));
            at = putVarint(at, event->actor);
            at = putVarint(at, event->aux);
            at = putVarint(at,
                           static_cast<std::uint64_t>(event->kind));
        }
    };
    const std::size_t tail = std::min(held, _ring.size() - first);
    encode(_ring.data() + first, tail);
    encode(_ring.data(), held - tail);
    packU64(header, _recorded);
    packU64(header + 8, held);
    packU64(header + 16, static_cast<std::uint64_t>(at - header - 24));
    out.resize(static_cast<std::size_t>(at - out.data()));
}

void
EventTracer::reset()
{
    // Counters only: events() reads exactly the slots the current run
    // recorded (size() is bounded by _recorded), so stale slots from a
    // previous lease are unreachable and zeroing the whole ring per
    // run would be wasted bandwidth.
    _next = 0;
    _recorded = 0;
}

} // namespace corona::obs
