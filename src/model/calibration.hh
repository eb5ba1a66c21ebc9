/**
 * @file
 * Residual calibration of the analytical model against the simulator.
 *
 * The closed-form model captures first-order structure (capacity
 * bounds, queueing, closed-loop throttling) but not everything the
 * event simulator does — finite-run ramp-up, MSHR coalescing on hot
 * blocks, torn burst epochs. Calibration fits multiplicative residual
 * factors (simulated / modelled) for bandwidth and latency from a
 * small simulated anchor grid, keyed by (config, workload) with
 * hierarchical fallback: exact cell -> config -> global -> 1.0. A
 * calibrated model interpolates those residuals across the far larger
 * analytic grid, and the explorer reserves the simulator for the
 * Pareto frontier.
 *
 * The anchor grid runs on the ordinary campaign machinery —
 * CampaignRunner for execution and (optionally) the checkpoint layer
 * for crash-tolerant persistence of the simulated anchors — so an
 * interrupted calibration resumes instead of re-simulating.
 */

#ifndef CORONA_MODEL_CALIBRATION_HH
#define CORONA_MODEL_CALIBRATION_HH

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "model/analytic.hh"

namespace corona::model {

/** Residual scales for one key (applied multiplicatively). */
struct CalibrationFactors
{
    double bandwidth_scale = 1.0;
    double latency_scale = 1.0;
    std::size_t samples = 0; ///< Anchor cells averaged into this key.
};

/**
 * A fitted set of residual correction factors.
 */
class Calibration
{
  public:
    /** Identity (an un-fitted calibration applies factors of 1). */
    Calibration() = default;

    /**
     * Fit from anchor pairs: @p simulated are RunRecords from the
     * simulator; each is matched with the model's prediction for the
     * same cell (re-evaluated here via @p model and fromConfig on the
     * record's config name resolved through @p spec). Failed records
     * are skipped. Replaces any previous fit.
     */
    void fit(const campaign::CampaignSpec &spec,
             const std::vector<campaign::RunRecord> &simulated,
             const AnalyticModel &model = AnalyticModel());

    /** Factors for (config, workload), hierarchical fallback. */
    const CalibrationFactors &lookup(const std::string &config,
                                     const std::string &workload) const;

    /** Apply lookup() to a raw prediction (bandwidth + latencies). */
    Prediction apply(const Prediction &raw, const std::string &config,
                     const std::string &workload) const;

    /** Fitted per-cell keys ("config|workload"), sorted. */
    std::vector<std::string> keys() const;
    bool fitted() const { return !_cells.empty(); }

    /**
     * Persist / restore. The format is a CSV with a magic header
     * ("# corona-model-calibration v1"), one row per key:
     * config,workload,bandwidth_scale,latency_scale,samples. Config
     * and workload use the campaign CSV quoting rules. load() is
     * fatal on a malformed header, and fatal naming the row on a
     * scale that is not a finite positive number, a sample count that
     * is not a decimal integer, or counts whose total overflows.
     */
    void save(std::ostream &os) const;
    static Calibration load(std::istream &is);

  private:
    static std::string cellKey(const std::string &config,
                               const std::string &workload);

    std::map<std::string, CalibrationFactors> _cells;
    std::map<std::string, CalibrationFactors> _configs;
    CalibrationFactors _global;
    CalibrationFactors _identity;
};

/** Options for the one-call anchor-grid calibration pass. */
struct CalibrateOptions
{
    /** Worker threads for the simulated anchor runs (0 = engine
     * default, honouring $CORONA_JOBS). */
    std::size_t threads = 0;
    /** Crash-tolerant checkpoint path for the anchor simulations
     * (empty = in-memory only). Re-running resumes finished cells. */
    std::string checkpoint_path;
    /** Progress stream (nullptr = quiet). */
    std::ostream *log = nullptr;
};

/**
 * Run @p spec through the event simulator on the campaign engine
 * (checkpointed and resumable when options.checkpoint_path is set)
 * and fit a Calibration from the results.
 */
Calibration calibrateFromAnchor(const campaign::CampaignSpec &spec,
                                const CalibrateOptions &options = {},
                                const AnalyticModel &model =
                                    AnalyticModel());

} // namespace corona::model

#endif // CORONA_MODEL_CALIBRATION_HH
