/**
 * @file
 * Hierarchical stat registry — the naming plane of src/obs.
 *
 * Components scatter their statistics across dozens of member objects
 * (stats::Counter, stats::RunningStats, raw integers, queue sizes).
 * A Registry gives them one addressable namespace: each component
 * registers read-only probes under a stable, slash-separated path
 * ("xbar/ch/12/grants", "mc/3/queue_depth"), and the observability
 * recorders (snapshot CSV, time-series sampler) read the whole set in
 * registration order. Registration order is construction order, which
 * is deterministic, so two runs of the same configuration produce the
 * same column set in the same order — the basis of the byte-identical
 * observability outputs the tests lock in.
 *
 * Probes are pull-based (a std::function<double()> closing over the
 * component), so registering costs one small allocation per probe and
 * the instrumented component pays nothing until somebody reads. The
 * registry is built once per simulation context and cached there
 * (instrumentation is pure naming — reset() zeroes the counters the
 * probes point at, never the probes themselves), entirely outside the
 * hot path: with observability off no Registry exists at all.
 */

#ifndef CORONA_OBS_REGISTRY_HH
#define CORONA_OBS_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_set>
#include <vector>

#include "stats/stats.hh"

namespace corona::obs {

/**
 * Render @p value with the shortest round-trippable decimal form
 * (std::to_chars): deterministic bytes for snapshots and time series,
 * and integral values ("1234", not "1234.000000") for the common
 * counter case.
 */
std::string formatValue(double value);

/** Longest probe path, in bytes, that Registry::add accepts. It is
 * also the binary time-series format's limit on a decoded path, which
 * keeps a decoded path table proportional to its file. */
inline constexpr std::size_t maxProbePathBytes = 255;

/** One named read-only probe. */
struct Probe
{
    std::string path;
    std::function<double()> read;
};

/**
 * A registry of hierarchically named probes.
 */
class Registry
{
  public:
    /**
     * Register a probe at @p path. Paths are slash-separated segments
     * of [a-z0-9_] (stable machine names, CSV-safe) of at most
     * maxProbePathBytes; duplicates and malformed paths are fatal — a
     * colliding path would silently shadow another component's data.
     */
    void add(std::string path, std::function<double()> read);

    /**
     * Register a RunningStats under @p path as four probes:
     * path/count, path/mean, path/min, path/max.
     */
    void addStats(const std::string &path,
                  const stats::RunningStats &stats);

    std::size_t size() const { return _probes.size(); }
    bool empty() const { return _probes.empty(); }
    const std::vector<Probe> &probes() const { return _probes; }

    /** Every probe path, in registration order. */
    std::vector<std::string> paths() const;

    /** Read every probe, in registration order. */
    std::vector<double> read() const;

    /**
     * Write a snapshot CSV ("path,value" with a header line): the
     * current value of every probe, in registration order.
     */
    void writeSnapshotCsv(std::ostream &os) const;

    /** Drop every probe (a leased system re-instruments per run). */
    void clear();

  private:
    std::vector<Probe> _probes;
    std::unordered_set<std::string> _paths;
};

} // namespace corona::obs

#endif // CORONA_OBS_REGISTRY_HH
