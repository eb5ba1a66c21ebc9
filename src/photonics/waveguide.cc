#include "photonics/waveguide.hh"

#include <stdexcept>

namespace corona::photonics {

Waveguide::Waveguide(double length_cm, const WaveguideParams &params)
    : _lengthCm(length_cm), _params(params)
{
    if (length_cm < 0)
        throw std::invalid_argument("Waveguide: negative length");
}

double
Waveguide::lossDb() const
{
    return _lengthCm * _params.loss_db_per_cm +
           static_cast<double>(_bends) * _params.bend_loss_db +
           static_cast<double>(_ringPassBys) * _ringThroughLossDb;
}

} // namespace corona::photonics
