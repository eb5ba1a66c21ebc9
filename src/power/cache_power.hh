/**
 * @file
 * CACTI-lite cache and core power estimates (Section 3.1.1).
 *
 * The paper sizes directory and L2 power with CACTI 5 and derives core
 * power from scaled Penryn (high estimate) and Silverthorne (low
 * estimate) designs, concluding the digital stack lands between 82 W and
 * 155 W. This module provides a small analytic model with the same
 * inputs (capacity, associativity, line size, process scaling) that
 * reproduces those bookends (FIDELITY.md's 82-155 W row) and gives
 * per-access energies.
 */

#ifndef CORONA_POWER_CACHE_POWER_HH
#define CORONA_POWER_CACHE_POWER_HH

#include <cstdint>

namespace corona::power {

/** Cache geometry for the analytic energy model. */
struct CacheGeometry
{
    std::uint64_t capacity_bytes;
    std::uint32_t associativity;
    std::uint32_t line_bytes = 64;
};

/** Analytic per-access energy and leakage estimate. */
struct CacheEnergy
{
    double read_energy_pj;   ///< Dynamic energy per read access.
    double write_energy_pj;  ///< Dynamic energy per write access.
    double leakage_mw;       ///< Static power.
};

/**
 * CACTI-style first-order model at a 16 nm design point: energy scales
 * with the square root of capacity (bitline/wordline lengths) and
 * linearly with associativity (ways read in parallel).
 */
CacheEnergy estimateCacheEnergy(const CacheGeometry &geometry);

/** Core power model inputs (scaled Penryn / Silverthorne analysis). */
struct CorePowerParams
{
    /** Per-core watts for the Penryn-derived in-order core at 16 nm
     * (Penryn power / 5, +20% for quad threading). */
    double penryn_core_w = 0.55;
    /** Per-core watts for the Silverthorne-derived core. */
    double silverthorne_core_w = 0.26;
    std::uint32_t cores = 256;
    /** Uncore (hubs, MCs, directories, L2) watts, from synthesis. */
    double uncore_w = 14.0;
};

/** Total digital power bookends (low, high), watts. */
struct CorePowerEstimate
{
    double low_w;  ///< Silverthorne-based (paper: ~82 W).
    double high_w; ///< Penryn-based (paper: ~155 W).
};

/** Reproduce the paper's 82-155 W digital power window. */
CorePowerEstimate estimateDigitalPower(const CorePowerParams &params = {});

} // namespace corona::power

#endif // CORONA_POWER_CACHE_POWER_HH
