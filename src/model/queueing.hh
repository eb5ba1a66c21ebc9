/**
 * @file
 * Closed-form queueing laws shared by the analytical performance model
 * and the simulator's cross-validation tests (tests/queueing_test.cc).
 *
 * Assumptions, with the paper sections they model:
 *  - M/D/1 waiting time: the per-cluster memory controller (Section
 *    3.1.2) serializes line transfers over its off-stack link at a
 *    deterministic per-line service time; under Poisson L2-miss
 *    arrivals the mean queueing delay is rho * s / (2 (1 - rho)).
 *  - M/M/1 waiting time: used as a pessimistic envelope for servers
 *    whose service time varies (mesh routers forwarding mixed
 *    header-only and header+line messages, Section 4).
 *  - Utilization law: a work-conserving link's busy fraction equals
 *    offered load over capacity (the link-utilization test and every
 *    saturation bound in src/model/analytic.cc).
 *  - Little's law: N = lambda * W, used to convert between outstanding
 *    misses (thread windows, MSHR occupancy) and latency in the
 *    closed-loop fixed point of the analytic model.
 */

#ifndef CORONA_MODEL_QUEUEING_HH
#define CORONA_MODEL_QUEUEING_HH

namespace corona::model {

/** Mean M/D/1 queueing delay (service excluded): rho*s / (2(1-rho)).
 * @param rho Utilization in [0, 1); values >= 1 are clamped just
 *        below saturation so sweeps over a grid never divide by zero.
 * @param service Deterministic service time (any unit; the result is
 *        in the same unit). */
double md1Wait(double rho, double service);

/** Mean M/M/1 queueing delay (service excluded): rho*s / (1-rho). */
double mm1Wait(double rho, double service);

/** Utilization law: offered / capacity, clamped to [0, 1]. Zero or
 * negative capacity yields full utilization (a degenerate server). */
double utilization(double offered, double capacity);

/** Little's law occupancy: N = lambda * W. */
double littlesLawOccupancy(double lambda, double wait);

/** The utilization ceiling used when clamping rho: closed-form waits
 * stay finite while still signalling saturation clearly. */
inline constexpr double maxUtilization = 0.9999;

} // namespace corona::model

#endif // CORONA_MODEL_QUEUEING_HH
