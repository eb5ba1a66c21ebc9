/**
 * @file
 * Plain-text table formatting for experiment output.
 *
 * corona-run's results table and corona-stats' figures print through
 * TableWriter, so the regenerated results match the paper's row/column
 * structure and can be diffed run to run.
 */

#ifndef CORONA_STATS_REPORT_HH
#define CORONA_STATS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace corona::stats {

/**
 * Accumulates rows of string cells and prints an aligned ASCII table.
 */
class TableWriter
{
  public:
    /** @param title Printed above the table. */
    explicit TableWriter(std::string title);

    /** Set the column headers (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a row; must match the header's column count if set. */
    void addRow(std::vector<std::string> row);

    /** Render to a stream. */
    void print(std::ostream &os) const;

  private:
    std::string _title;
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/** Format a double with @p digits significant decimal places. */
std::string formatDouble(double value, int digits = 2);

} // namespace corona::stats

#endif // CORONA_STATS_REPORT_HH
