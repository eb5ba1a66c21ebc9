/**
 * @file
 * Bounded ring-buffer event tracer — the dynamic plane of src/obs.
 *
 * Components with a tracer attached record timed spans (channel
 * modulation grants, token handoffs, memory-controller queue/service
 * intervals, barrier waits, coherence messages) into a fixed-capacity
 * ring: recording is a couple of stores, never an allocation, and when
 * the ring fills the oldest events are overwritten so the trace always
 * holds the most recent window. At run end the ring is written as a
 * compact binary section of the run's container (varint-packed
 * records, a few bytes per event); `corona-stats trace --export`
 * renders it as Chrome trace-event JSON (complete "X" events),
 * loadable in Perfetto or chrome://tracing: one row per actor
 * (cluster), one slice per span. Time-series probes can ride
 * along as Chrome counter ("C") events so utilization curves render
 * next to the spans.
 *
 * Recording order is simulation order (components record at event
 * execution time on the single-threaded kernel), so both the binary
 * and the exported JSON bytes are deterministic for a given run
 * regardless of host thread count.
 */

#ifndef CORONA_OBS_TRACE_HH
#define CORONA_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace corona::obs {

struct TimeSeriesData;

/** What a trace span describes. */
enum class TraceKind : std::uint8_t
{
    ChannelGrant, ///< One message modulated on a crossbar channel.
    TokenHandoff, ///< Token request-to-divert wait on the arbitration ring.
    McIssue,      ///< Memory request queued (arrival to link issue).
    McComplete,   ///< Memory request serviced (arrival to data ready).
    BarrierWait,  ///< Barrier arrival-to-release wait.
    CohInval,     ///< Directed invalidation delivered to a sharer.
    CohForward,   ///< FwdGetS/FwdGetM delivered to the owning cluster.
    CohWriteback, ///< Dirty line written back toward its home slice.
    CohBroadcast, ///< Pool-invalidate broadcast snooped by a cluster.
    GrantBatch,   ///< Token-grant schedules coalesced into one event
                  ///< (aux = batch size including the survivor).
};

/** Chrome trace-event category name for @p kind. */
const char *traceCategory(TraceKind kind);

/** Chrome trace-event slice name for @p kind. */
const char *traceName(TraceKind kind);

/** 8-byte magic opening every binary trace section. */
extern const char traceMagic[8];

/** One recorded span. */
struct TraceEvent
{
    sim::Tick start = 0;
    sim::Tick end = 0;
    /** Row the span renders on (cluster id of the acting component). */
    std::uint32_t actor = 0;
    /** Kind-specific detail (peer cluster, queue depth, ...). */
    std::uint32_t aux = 0;
    TraceKind kind = TraceKind::ChannelGrant;
};

/** An in-memory trace: what readTraceBinary returns. */
struct TraceData
{
    /** Total events ever recorded (>= events.size() when the ring
     * wrapped). */
    std::uint64_t recorded = 0;
    std::vector<TraceEvent> events; ///< Oldest first.
};

/**
 * Parse one binary trace section (fatal on malformed bytes; @p what names
 * the input in error messages).
 */
TraceData readTraceBinary(std::istream &is, const std::string &what);

/**
 * Render spans (and, when @p counters is non-null, time-series probes
 * as Chrome counter tracks) as Chrome trace-event JSON: an object with
 * a "traceEvents" array of complete events, timestamps in microseconds
 * with tick resolution preserved. The bytes are deterministic: pure
 * integer formatting, event order. @p counter_prefix, when non-empty,
 * keeps only probes whose path starts with it (a full Registry easily
 * holds ~2000 probes; Perfetto renders a handful of tracks well).
 */
void writeChromeTraceJson(std::ostream &os,
                          const std::vector<TraceEvent> &events,
                          const TimeSeriesData *counters = nullptr,
                          const std::string &counter_prefix = "");

/**
 * Fixed-capacity ring of trace events.
 */
class EventTracer
{
  public:
    /** @param capacity Ring size in events (must be > 0). */
    explicit EventTracer(std::size_t capacity);

    /** Record one span; overwrites the oldest event when full. */
    void
    record(TraceKind kind, std::uint32_t actor, sim::Tick start,
           sim::Tick end, std::uint32_t aux = 0)
    {
        TraceEvent &slot = _ring[_next];
        slot = TraceEvent{start, end, actor, aux, kind};
        // Compare-and-wrap, not modulo: the capacity is caller-chosen
        // (rarely a power of two) and this runs once per traced span.
        if (++_next == _ring.size())
            _next = 0;
        ++_recorded;
    }

    std::size_t capacity() const { return _ring.size(); }

    /** Events currently held (<= capacity). */
    std::size_t
    size() const
    {
        return _recorded < _ring.size()
                   ? static_cast<std::size_t>(_recorded)
                   : _ring.size();
    }

    /** Total events ever recorded. */
    std::uint64_t recorded() const { return _recorded; }

    /** Events lost to ring wrap-around. */
    std::uint64_t
    dropped() const
    {
        return _recorded > _ring.size() ? _recorded - _ring.size() : 0;
    }

    /** Held events, oldest first. */
    std::vector<TraceEvent> events() const;

    /**
     * Append the compact binary bytes (magic, counts header,
     * varint-packed records oldest first) to @p out. Deterministic
     * bytes for a given run; appending lets the per-run writer pack
     * several planes into one container file with one buffer.
     */
    void appendBinary(std::string &out) const;

    /** Drop every event and zero the counters. */
    void reset();

  private:
    std::vector<TraceEvent> _ring;
    std::size_t _next = 0;
    std::uint64_t _recorded = 0;
};

} // namespace corona::obs

#endif // CORONA_OBS_TRACE_HH
