/**
 * @file
 * Optical loss-budget and laser-power solver.
 *
 * Builds the worst-case optical path of a Corona interconnect (laser ->
 * star coupler / splitter tree -> power waveguide -> modulators -> data
 * waveguide serpentine past every cluster's rings -> detector) and solves
 * for the laser power required per wavelength, and hence the total optical
 * and electrical laser power. This backs the paper's claim that the full
 * photonic interconnect (laser + ring trimming + analog) fits in ~39 W.
 */

#ifndef CORONA_PHOTONICS_LOSS_BUDGET_HH
#define CORONA_PHOTONICS_LOSS_BUDGET_HH

#include <string>
#include <vector>

#include "photonics/waveguide.hh"

namespace corona::photonics {

/** One named loss contribution on an optical path. */
struct LossElement
{
    std::string name;
    double loss_db;
};

/**
 * An optical path as an ordered list of loss contributions.
 */
class OpticalPath
{
  public:
    /** Append a named loss element (loss must be >= 0 dB). */
    void add(std::string name, double loss_db);

    /** Append a waveguide run's total loss. */
    void add(const Waveguide &wg, const std::string &name = "waveguide");

    /** Sum of all contributions, dB. */
    double totalLossDb() const;

    const std::vector<LossElement> &elements() const { return _elements; }

  private:
    std::vector<LossElement> _elements;
};

/** Inputs to the budget solver. */
struct BudgetParams
{
    /** Receiver sensitivity; the ~1 fF ring detector needs no TIA and is
     * sensitive (Section 2). dBm. */
    double detector_sensitivity_dbm = -26.0;
    /** Engineering margin on top of the worst-case path, dB. */
    double margin_db = 3.0;
    /** Laser wall-plug efficiency. */
    double wall_plug_efficiency = 0.15;
};

/** Result of solving a budget. */
struct BudgetResult
{
    double path_loss_db;            ///< Worst-case path loss.
    double required_at_source_dbm;  ///< Per-wavelength launch power.
    double required_at_source_mw;   ///< Same, linear.
    double total_optical_power_w;   ///< Across all wavelength instances.
    double total_electrical_power_w;///< After wall-plug efficiency.
};

/**
 * Solve the laser power needed to close a link budget.
 *
 * @param path Worst-case optical path.
 * @param wavelength_instances Total number of (wavelength, channel)
 *        pairs that must be powered simultaneously.
 * @param params Solver inputs.
 */
BudgetResult solveBudget(const OpticalPath &path,
                         std::size_t wavelength_instances,
                         const BudgetParams &params = {});

/**
 * Construct the worst-case crossbar data path for a Corona-sized system.
 *
 * @param clusters Number of clusters on the serpentine (64).
 * @param serpentine_cm Full serpentine length (16 cm = 8 clocks).
 * @param rings_passed Off-resonance rings the light passes end to end.
 * @param ring_through_db Through loss per off-resonance ring, dB.
 * @param waveguide Loss parameters for the serpentine run.
 */
OpticalPath crossbarWorstCasePath(std::size_t clusters,
                                  double serpentine_cm,
                                  std::size_t rings_passed,
                                  double ring_through_db = 0.001,
                                  const WaveguideParams &waveguide = {});

} // namespace corona::photonics

#endif // CORONA_PHOTONICS_LOSS_BUDGET_HH
