/**
 * @file
 * Waveguide model.
 *
 * Silicon waveguides confine light between a crystalline-Si core and an
 * oxide cladding (Section 2). The model tracks propagation delay (light in
 * a Si waveguide covers ~2 cm per 5 GHz clock, i.e. a group velocity of
 * ~1e8 m/s) and accumulated loss from distance, bends and rings passed —
 * the inputs to the loss-budget solver.
 */

#ifndef CORONA_PHOTONICS_WAVEGUIDE_HH
#define CORONA_PHOTONICS_WAVEGUIDE_HH

#include <cstddef>

#include "sim/types.hh"

namespace corona::photonics {

/** Group velocity of light in a silicon waveguide (m/s): 2 cm / 200 ps. */
inline constexpr double groupVelocityMps = 1.0e8;

/** Propagation delay for a length in centimetres, in ticks (ps). */
constexpr sim::Tick
propagationDelay(double length_cm)
{
    // 1 cm at 1e8 m/s = 100 ps.
    return static_cast<sim::Tick>(length_cm * 100.0 + 0.5);
}

/** Physical/loss parameters of a waveguide run. */
struct WaveguideParams
{
    /** Propagation loss; demonstrated waveguides are 2-3 dB/cm, but a
     * production interconnect requires ~0.3 dB/cm (configurable). */
    double loss_db_per_cm = 0.3;
    /** Loss per 10 um-radius bend, dB. */
    double bend_loss_db = 0.005;
};

/**
 * A passive waveguide run of a given length with bends and ring pass-bys.
 */
class Waveguide
{
  public:
    /**
     * @param length_cm Physical length.
     * @param params Loss parameters.
     */
    explicit Waveguide(double length_cm, const WaveguideParams &params = {});

    double lengthCm() const { return _lengthCm; }

    /** Number of bends along the run. */
    std::size_t bends() const { return _bends; }
    void setBends(std::size_t n) { _bends = n; }

    /** Number of off-resonance rings the light passes. */
    std::size_t ringPassBys() const { return _ringPassBys; }
    void setRingPassBys(std::size_t n) { _ringPassBys = n; }

    /** Through-loss contributed by each off-resonance ring, dB. */
    void setRingThroughLossDb(double db) { _ringThroughLossDb = db; }

    /** Total propagation delay end to end, ticks. */
    sim::Tick delay() const { return propagationDelay(_lengthCm); }

    /** Total loss end to end, dB (distance + bends + ring pass-bys). */
    double lossDb() const;

  private:
    double _lengthCm;
    WaveguideParams _params;
    std::size_t _bends = 0;
    std::size_t _ringPassBys = 0;
    double _ringThroughLossDb = 0.01;
};

} // namespace corona::photonics

#endif // CORONA_PHOTONICS_WAVEGUIDE_HH
