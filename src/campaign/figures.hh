/**
 * @file
 * Figures 8-11 of the paper, rendered from a finished paper-grid run.
 *
 * scenarios/fig9.scenario runs the 15 Table-3 workloads on the five
 * paper configurations, and its CSV sink holds every number the four
 * figures plot: speedup over LMesh/ECM with the Section 5 geometric
 * means (Fig. 8), achieved memory bandwidth (Fig. 9), average L2-miss
 * latency (Fig. 10) and on-chip network power (Fig. 11). Rendering
 * reads those rows and simulates nothing (`corona-stats figures`).
 */

#ifndef CORONA_CAMPAIGN_FIGURES_HH
#define CORONA_CAMPAIGN_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace corona::campaign {

/**
 * Print the Figure 8, 9, 10 and 11 tables, in that order, from
 * @p rows: a paper-grid CSV's records in file order (readRunsCsv), so
 * rows[i] is line i + 2 of the file @p what names.
 *
 * The rows must hold exactly the paper grid: one ok row for every
 * non-sharing registry workload on every core::paperConfigNames()
 * config, each with elapsed_ticks > 0, and equal requests_issued
 * within a workload. A missing, duplicated, failed or extra cell, or
 * a workload outside the registry, is fatal, naming the line or the
 * cell. Rows print in registry order and columns in paper order
 * whatever the order of the file.
 */
void writePaperFigures(std::ostream &os,
                       const std::vector<RunRecord> &rows,
                       const std::string &what);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_FIGURES_HH
