#include "memory/conventional_dram.hh"

#include <algorithm>
#include <stdexcept>

namespace corona::memory {

ConventionalDram::ConventionalDram(const ConventionalDramParams &params)
    : _params(params), _banks(params.banks)
{
    if (params.banks == 0 || params.row_bytes == 0 ||
        params.line_bytes == 0 || params.row_bytes < params.line_bytes) {
        throw std::invalid_argument("ConventionalDram: bad geometry");
    }
}

std::size_t
ConventionalDram::bankOf(topology::Addr addr) const
{
    return static_cast<std::size_t>(
        (addr / _params.row_bytes) % _params.banks);
}

topology::Addr
ConventionalDram::rowOf(topology::Addr addr) const
{
    return addr / _params.row_bytes;
}

ConventionalAccess
ConventionalDram::access(topology::Addr addr, sim::Tick now)
{
    Bank &bank = _banks[bankOf(addr)];
    const topology::Addr row = rowOf(addr);
    ++_accesses;

    ConventionalAccess result{};
    sim::Tick start = std::max(now, bank.ready);
    double energy =
        static_cast<double>(_params.line_bytes) * 8.0 *
        _params.column_energy_pj_per_bit;

    if (bank.open && bank.row == row) {
        // Row hit: column access only.
        result.row_hit = true;
        ++_rowHits;
        result.ready = start + _params.t_cas;
    } else {
        // Row miss: precharge the old row (if open), activate the new
        // one — reading the full row's worth of bits — then the column
        // access.
        sim::Tick latency = _params.t_rcd + _params.t_cas;
        if (bank.open)
            latency += _params.t_rp;
        ++_activations;
        energy += static_cast<double>(_params.row_bytes) * 8.0 *
                  _params.activate_energy_pj_per_bit;
        result.ready = start + latency;
        bank.open = true;
        bank.row = row;
    }
    bank.ready = result.ready;
    result.energy_pj = energy;
    _energyPj += energy;
    return result;
}

double
ConventionalDram::rowHitRate() const
{
    return _accesses ? static_cast<double>(_rowHits) /
                           static_cast<double>(_accesses)
                     : 0.0;
}

double
ConventionalDram::activationOverhead() const
{
    const double useful = static_cast<double>(_accesses) *
                          _params.line_bytes;
    const double activated = static_cast<double>(_activations) *
                             _params.row_bytes;
    return useful > 0 ? activated / useful : 0.0;
}

DramEnergyComparison
compareDramEnergy(double row_hit_rate,
                  const ConventionalDramParams &conventional,
                  double corona_access_pj)
{
    if (row_hit_rate < 0.0 || row_hit_rate > 1.0)
        throw std::invalid_argument("compareDramEnergy: bad hit rate");
    DramEnergyComparison cmp{};
    cmp.corona_pj_per_line = corona_access_pj;
    const double column = conventional.line_bytes * 8.0 *
                          conventional.column_energy_pj_per_bit;
    const double activate = conventional.row_bytes * 8.0 *
                            conventional.activate_energy_pj_per_bit;
    cmp.conventional_pj_per_line =
        column + (1.0 - row_hit_rate) * activate;
    cmp.ratio = cmp.conventional_pj_per_line / cmp.corona_pj_per_line;
    return cmp;
}

} // namespace corona::memory
