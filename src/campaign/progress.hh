/**
 * @file
 * Wall-clock progress and ETA reporting for campaign runs.
 *
 * The runner calls completed() in completion order (so progress is live
 * even when early-index runs are slow), already serialised under its
 * lock. Output goes to stderr by convention, keeping stdout clean for
 * tables and sink data. The reporter is resume-aware: begin() receives
 * both the shard's total run count and how many of those were replayed
 * from a checkpoint, so a resumed campaign's counter starts where the
 * previous session left off while the ETA is based on pending work
 * only.
 */

#ifndef CORONA_CAMPAIGN_PROGRESS_HH
#define CORONA_CAMPAIGN_PROGRESS_HH

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "campaign/spec.hh"

namespace corona::campaign {

/** Human-readable duration: "1.23 s" under 10 s, "45.6 s" under two
 * minutes, "12 min" under two hours, then "2 h 5 min". */
std::string formatSeconds(double seconds);

/** Human-readable rate: "875", "43.2k", "8.41M", "1.20G". */
std::string formatRate(double per_second);

/** Prints one line per finished run with throughput-based ETA. */
class ProgressReporter
{
  public:
    explicit ProgressReporter(std::ostream &os);

    /**
     * Announce the campaign before the first run starts.
     *
     * @param total_runs All of this shard's runs, replayed included.
     * @param replayed Runs restored from a checkpoint (never executed
     *        this session); total_runs - replayed runs are pending.
     * @param threads Worker threads executing the pending runs.
     */
    void begin(const CampaignSpec &spec, std::size_t total_runs,
               std::size_t replayed, std::size_t threads);

    /** Report one finished run (completion order). */
    void completed(const RunRecord &record);

    /** Final summary (total wall time, failures). */
    void end();

  private:
    std::ostream &_os;
    std::size_t _total = 0;    ///< Replayed + pending.
    std::size_t _replayed = 0; ///< Restored from a checkpoint.
    std::size_t _done = 0;     ///< Executed this session.
    std::size_t _failed = 0;
    int _width = 1; ///< Digits in _total, for aligned counters.
    /** Kernel events executed this session (host throughput). */
    std::uint64_t _events = 0;
    std::chrono::steady_clock::time_point _start;
};

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_PROGRESS_HH
