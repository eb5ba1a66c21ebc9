/**
 * @file
 * Campaign-level observability rollup.
 *
 * Per-run obs files answer "what happened inside run 17"; the paper's
 * story is told in aggregates — per-channel utilization, token-slot
 * efficiency, MC queueing across a whole sweep. ObsRollup is the
 * campaign-scale plane: the runner captures every executed run's
 * end-of-run registry state (one row of ~2000 probe values) and the
 * rollup groups those rows by system configuration (each config has a
 * fixed probe set; grids can mix configs). At campaign end the runner
 * writes one rollup file, rollup.csv; `corona-stats report` reads it
 * back and renders the aggregates (top-N hottest channels/routers,
 * utilization histograms, per-probe mean/max/p95 across cells).
 *
 * Determinism discipline: write() sorts groups by config label and
 * rows by run index (deduplicating by run, last wins), so the rollup
 * bytes — and every aggregate computed from them, floating-point
 * summation order included — are identical for any worker count.
 * Values round-trip through obs::formatValue (shortest-round-trip
 * decimals), so read-then-write is byte-stable.
 *
 * Replay caveat: checkpoint-resumed runs are not re-executed, so they
 * contribute no rollup row — the rollup covers executed cells, the
 * same semantics as per-run obs files.
 */

#ifndef CORONA_CAMPAIGN_OBS_ROLLUP_HH
#define CORONA_CAMPAIGN_OBS_ROLLUP_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace corona::campaign {

/** One executed run's end-of-run registry state. */
struct RollupRow
{
    std::size_t run = 0;   ///< Global run index in the grid.
    sim::Tick tick = 0;    ///< Simulated end time of the run.
    std::vector<double> values; ///< Probe values, path order.
};

/** Every collected run of one system configuration. */
struct RollupGroup
{
    std::string config;             ///< SystemConfig::name().
    std::vector<std::string> paths; ///< Probe paths, registry order.
    std::vector<RollupRow> rows;    ///< Insertion order; write() sorts.
};

/**
 * Campaign-level aggregate of end-of-run registry captures (see file
 * comment). Not thread-safe; the runner serialises access.
 */
class ObsRollup
{
  public:
    bool hasGroup(const std::string &config) const;

    /**
     * Add one executed run. The first row of a config must carry the
     * probe @p paths (the runner asks the capture for them); later
     * rows may pass an empty list. A non-empty list must match the
     * group's (fatal otherwise — the probe set is a pure function of
     * the config), as must the value count.
     */
    void addRun(const std::string &config, std::size_t run,
                sim::Tick tick, const std::vector<std::string> &paths,
                std::vector<double> values);

    const std::vector<RollupGroup> &groups() const { return _groups; }

    /**
     * Write the canonical text form: a magic line, then per group
     * (sorted by config) a "group,<config>" line, a
     * "run,tick,<paths...>" header, and one CSV row per run (sorted
     * by run index, deduplicated last-wins). Deterministic bytes for
     * a given set of runs regardless of insertion order.
     */
    void write(std::ostream &os) const;

    /** Parse a rollup file strictly: run and tick are unsigned
     * decimals, values full-match decimals (nan and inf included).
     * Fatal on malformed input, naming @p what and the line. */
    static ObsRollup read(std::istream &is, const std::string &what);

  private:
    RollupGroup *find(const std::string &config);

    std::vector<RollupGroup> _groups;
};

/** Read @p path as a rollup file (fatal on I/O or parse failure). */
ObsRollup readRollupFile(const std::string &path);

/** Write @p rollup to @p path (fatal on I/O failure). */
void writeRollupFile(const std::string &path, const ObsRollup &rollup);

/** Rendering knobs for writeRollupReport. */
struct RollupReportOptions
{
    /** Entries per top-N list. */
    std::size_t top = 10;
    /** When non-empty, also aggregate every probe whose path starts
     * with this prefix (count/mean/min/max/p95 across runs). */
    std::string probes;
};

/**
 * Render the human-readable campaign report: per group, the top-N
 * hottest crossbar channels (mean busy fraction), top-N deepest mesh
 * routers (mean injection depth), a channel-utilization histogram,
 * and optional per-probe aggregates. Deterministic bytes for a given
 * rollup.
 */
void writeRollupReport(std::ostream &os, const ObsRollup &rollup,
                       const RollupReportOptions &options = {});

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_OBS_ROLLUP_HH
