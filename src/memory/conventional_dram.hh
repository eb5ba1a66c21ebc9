/**
 * @file
 * Conventional open-page DRAM model (Section 3.3's counterpoint).
 *
 * "Current electrical memory systems and DRAMs activate many banks on
 * many die on a DIMM, reading out tens of thousands of bits into an
 * open page. However, with highly interleaved memory systems and a
 * thousand threads, the chances of the next access being to an open
 * page are small. Corona's DRAM architecture avoids accessing an order
 * of magnitude more bits than are needed for the cache line, and hence
 * consumes less power."
 *
 * This model quantifies that argument: a DIMM-style rank activates a
 * full row across many devices per row miss; row-buffer locality
 * decides how often the activation energy is amortized. Compared
 * against DramModule (Corona's single-mat line access) it reproduces
 * the order-of-magnitude energy-per-bit gap at low locality.
 */

#ifndef CORONA_MEMORY_CONVENTIONAL_DRAM_HH
#define CORONA_MEMORY_CONVENTIONAL_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "topology/address_map.hh"

namespace corona::memory {

/** Conventional DIMM-style DRAM parameters. */
struct ConventionalDramParams
{
    std::size_t banks = 8;
    /** Row (page) size opened per activation across the rank, bytes —
     * "tens of thousands of bits". */
    std::uint32_t row_bytes = 8192;
    std::uint32_t line_bytes = 64;
    /** Activate+precharge energy, picojoules per activated bit. */
    double activate_energy_pj_per_bit = 0.15;
    /** Column read/write energy, picojoules per transferred bit. */
    double column_energy_pj_per_bit = 0.5;
    /** Row activate (tRCD) delay, ticks. */
    sim::Tick t_rcd = 12000;
    /** Precharge (tRP) delay, ticks. */
    sim::Tick t_rp = 12000;
    /** Column access (tCAS) delay, ticks. */
    sim::Tick t_cas = 12000;
};

/** Outcome of one conventional access. */
struct ConventionalAccess
{
    bool row_hit;
    sim::Tick ready;   ///< Completion tick.
    double energy_pj;  ///< Energy consumed by this access.
};

/**
 * Open-page DRAM rank with per-bank row buffers.
 */
class ConventionalDram
{
  public:
    explicit ConventionalDram(const ConventionalDramParams &params = {});

    /** Perform a line access at @p now. */
    ConventionalAccess access(topology::Addr addr, sim::Tick now);

    std::size_t bankOf(topology::Addr addr) const;
    topology::Addr rowOf(topology::Addr addr) const;

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t rowHits() const { return _rowHits; }
    double rowHitRate() const;

    /** Total energy consumed, joules. */
    double energyJ() const { return _energyPj * 1e-12; }

    /** Bits activated (row reads) versus bits actually used. */
    double activationOverhead() const;

    const ConventionalDramParams &params() const { return _params; }

  private:
    struct Bank
    {
        bool open = false;
        topology::Addr row = 0;
        sim::Tick ready = 0;
    };

    ConventionalDramParams _params;
    std::vector<Bank> _banks;
    std::uint64_t _accesses = 0;
    std::uint64_t _rowHits = 0;
    std::uint64_t _activations = 0;
    double _energyPj = 0.0;
};

/**
 * Closed-form comparison used by the DRAM-energy ablation: energy per
 * line for Corona's single-mat access versus a conventional open-page
 * system at a given row-buffer hit rate.
 */
struct DramEnergyComparison
{
    double corona_pj_per_line;
    double conventional_pj_per_line;
    double ratio; ///< conventional / corona.
};

DramEnergyComparison compareDramEnergy(double row_hit_rate,
                                       const ConventionalDramParams
                                           &conventional = {},
                                       double corona_access_pj = 15.0);

} // namespace corona::memory

#endif // CORONA_MEMORY_CONVENTIONAL_DRAM_HH
