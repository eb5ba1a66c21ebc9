#include "campaign/progress.hh"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace corona::campaign {

std::string
formatSeconds(double seconds)
{
    std::ostringstream os;
    if (seconds < 10.0) {
        os << std::fixed << std::setprecision(2) << seconds << " s";
    } else if (seconds < 120.0) {
        os << std::fixed << std::setprecision(1) << seconds << " s";
    } else if (seconds < 7200.0) {
        os << std::fixed << std::setprecision(0) << seconds / 60.0
           << " min";
    } else {
        // Long campaign ETAs used to print "600 min"; roll minutes
        // into hours past the two-hour mark.
        auto hours = static_cast<long>(seconds / 3600.0);
        auto minutes = static_cast<long>(
            std::lround((seconds - 3600.0 * static_cast<double>(hours)) /
                        60.0));
        if (minutes == 60) {
            ++hours;
            minutes = 0;
        }
        os << hours << " h " << minutes << " min";
    }
    return os.str();
}

std::string
formatRate(double per_second)
{
    std::ostringstream os;
    const auto scaled = [&](double value, const char *suffix) {
        const int precision = value < 10.0 ? 2 : (value < 100.0 ? 1 : 0);
        os << std::fixed << std::setprecision(precision) << value
           << suffix;
    };
    if (per_second < 1e3)
        os << std::fixed << std::setprecision(0) << per_second;
    else if (per_second < 1e6)
        scaled(per_second / 1e3, "k");
    else if (per_second < 1e9)
        scaled(per_second / 1e6, "M");
    else
        scaled(per_second / 1e9, "G");
    return os.str();
}

ProgressReporter::ProgressReporter(std::ostream &os) : _os(os)
{
}

void
ProgressReporter::begin(const CampaignSpec &spec,
                        std::size_t total_runs, std::size_t replayed,
                        std::size_t threads)
{
    _total = total_runs;
    _replayed = replayed;
    _done = 0;
    _failed = 0;
    _events = 0;
    _width = 1;
    for (std::size_t n = _total; n >= 10; n /= 10)
        ++_width;
    _start = std::chrono::steady_clock::now();
    // Compose every report in a local buffer and emit it with a single
    // insertion: piecewise writes from concurrent processes sharing the
    // stream (sharded launches) would interleave mid-line.
    std::ostringstream line;
    line << "campaign \"" << spec.name << "\": " << total_runs
         << " runs";
    if (replayed > 0)
        line << " (" << replayed << " replayed from checkpoint, "
             << total_runs - replayed << " pending)";
    line << " on " << threads
         << (threads == 1 ? " worker thread\n" : " worker threads\n");
    _os << line.str();
    _os.flush();
}

void
ProgressReporter::completed(const RunRecord &record)
{
    ++_done;
    if (!record.ok)
        ++_failed;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      _start)
            .count();
    std::ostringstream line;
    line << "  [" << std::setw(_width) << _replayed + _done << "/"
         << _total << "] " << record.workload << " on " << record.config;
    if (!record.override_label.empty())
        line << " (" << record.override_label << ")";
    if (!record.ok)
        line << " FAILED: " << record.error;
    line << " in " << formatSeconds(record.wall_seconds);
    // Host-side simulator throughput.
    _events += record.metrics.events_executed;
    if (record.metrics.events_executed > 0 &&
        record.metrics.host_seconds > 0.0) {
        line << " ("
             << formatRate(
                    static_cast<double>(record.metrics.events_executed) /
                    record.metrics.host_seconds)
             << " ev/s)";
    }
    // ETA extrapolates this session's throughput over the runs still
    // pending; replayed runs cost nothing and must not dilute it.
    const std::size_t pending = _total - _replayed;
    if (_done < pending) {
        const double eta = elapsed / static_cast<double>(_done) *
                           static_cast<double>(pending - _done);
        line << ", ETA " << formatSeconds(eta);
    }
    line << "\n";
    _os << line.str();
    _os.flush();
}

void
ProgressReporter::end()
{
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      _start)
            .count();
    std::ostringstream line;
    line << "campaign finished: " << _done << " runs";
    if (_replayed > 0)
        line << " (+" << _replayed << " replayed)";
    line << " in " << formatSeconds(elapsed);
    if (_done > 0 && elapsed > 0.0) {
        line << " ("
             << formatRate(static_cast<double>(_done) / elapsed)
             << " cells/s";
        if (_events > 0)
            line << ", "
                 << formatRate(static_cast<double>(_events) / elapsed)
                 << " ev/s";
        line << ")";
    }
    if (_failed > 0)
        line << ", " << _failed << " FAILED";
    line << "\n";
    // The final cells/s + ev/s summary goes through the same stream,
    // same single-insertion discipline, as the per-run lines — no
    // interleaving garble under multi-worker output.
    _os << line.str();
    _os.flush();
}

} // namespace corona::campaign
