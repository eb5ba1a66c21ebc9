#include "model/queueing.hh"

#include <algorithm>

namespace corona::model {

namespace {

double
clampRho(double rho)
{
    return std::clamp(rho, 0.0, maxUtilization);
}

} // namespace

double
md1Wait(double rho, double service)
{
    const double r = clampRho(rho);
    return r * service / (2.0 * (1.0 - r));
}

double
mm1Wait(double rho, double service)
{
    const double r = clampRho(rho);
    return r * service / (1.0 - r);
}

double
utilization(double offered, double capacity)
{
    if (capacity <= 0.0)
        return 1.0;
    return std::clamp(offered / capacity, 0.0, 1.0);
}

double
littlesLawOccupancy(double lambda, double wait)
{
    return lambda * wait;
}

} // namespace corona::model
