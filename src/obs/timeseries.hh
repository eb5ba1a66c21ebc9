/**
 * @file
 * Periodic time-series sampler — the temporal plane of src/obs.
 *
 * The sampler rides the simulation's own event queue: every
 * sample period it reads every probe into one row (tick, probe values
 * in registration order) and reschedules itself. Rescheduling stops the
 * moment the queue drains — the sampler checks `EventQueue::empty()`
 * at fire time, when its own event has already been popped — so an
 * instrumented run still terminates exactly like an uninstrumented
 * one, just with a final sample at the last scheduled tick.
 *
 * The fast path: start() resolves the registry once into a flat table
 * of probe closures, and rows land in one preallocated columnar block
 * — no registry walk, path formatting, or per-row allocation at sample
 * time. After the run the block is written as a compact binary
 * section of the run's container (appendBinary), which corona-stats
 * decodes (readTimeSeriesBinary) and exports on demand as columnar CSV
 * ("tick,<path>,<path>,...", writeTimeSeriesCsv).
 */

#ifndef CORONA_OBS_TIMESERIES_HH
#define CORONA_OBS_TIMESERIES_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace corona::sim {
class EventQueue;
} // namespace corona::sim

namespace corona::stats {
class Counter;
} // namespace corona::stats

namespace corona::obs {

class Registry;

/** 8-byte magic opening every binary time-series section. */
extern const char timeSeriesMagic[8];

/**
 * An in-memory time series: what readTimeSeriesBinary returns and what
 * the CSV exporter renders. Values are row-major (rows x paths).
 */
struct TimeSeriesData
{
    sim::Tick period = 0;
    std::vector<std::string> paths;
    std::vector<sim::Tick> ticks;
    std::vector<double> values;

    std::size_t rows() const { return ticks.size(); }
};

/**
 * Parse one binary time-series section (fatal on malformed bytes;
 * @p what names the input in error messages).
 */
TimeSeriesData readTimeSeriesBinary(std::istream &is,
                                    const std::string &what);

/**
 * Render @p data as columnar CSV: a "tick,<paths...>" header, then one
 * row per sample with values in registration order.
 */
void writeTimeSeriesCsv(std::ostream &os, const TimeSeriesData &data);

/**
 * Samples a Registry every fixed number of ticks, via the event queue.
 */
class TimeSeriesSampler
{
  public:
    /**
     * @param registry Probes to sample (must outlive the sampler).
     * @param eq Event queue driving the simulation (must outlive).
     * @param period Ticks between samples (must be > 0).
     */
    TimeSeriesSampler(const Registry &registry, sim::EventQueue &eq,
                      sim::Tick period);

    /**
     * Resolve the probe table, take the t=now sample, and schedule the
     * periodic ones. Call once, after instrumentation and before the
     * run.
     */
    void start();

    /**
     * Externally driven variant: resolve the probe table and take the
     * t=0 sample, but schedule nothing — the sharded executor's
     * barrier tick hook calls sampleTick() at each period instead.
     * Samples then read the model at a quiescent point (every event
     * up to the sample tick executed, none beyond), the same
     * guarantee the event-based sampler gets from the serial queue.
     */
    void startExternal();

    /** Record one row at @p tick (executor barrier hook). */
    void sampleTick(sim::Tick tick);

    sim::Tick period() const { return _period; }
    std::size_t rowCount() const { return _ticks.size(); }
    std::size_t probeCount() const { return _probeCount; }
    sim::Tick rowTick(std::size_t row) const { return _ticks[row]; }

    double
    value(std::size_t row, std::size_t probe) const
    {
        return _values[row * _probeCount + probe];
    }

    /**
     * Append the compact binary bytes (magic, period, path table,
     * tick column, row-major value block) to @p out. Deterministic
     * bytes for a given run; appending lets the per-run writer pack
     * several planes into one container file.
     */
    void appendBinary(std::string &out) const;

  private:
    void prepare();
    void record(sim::Tick tick);
    void sample();
    void scheduleNext();

    const Registry &_registry;
    sim::EventQueue &_eq;
    sim::Tick _period;
    std::size_t _probeCount = 0;
    /** Each probe's closure, in registration order. */
    std::vector<const std::function<double()> *> _resolved;
    std::vector<sim::Tick> _ticks;
    std::vector<double> _values; ///< Row-major rows x probes.
};

} // namespace corona::obs

#endif // CORONA_OBS_TIMESERIES_HH
