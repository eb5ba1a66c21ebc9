/**
 * @file
 * Closed-form throughput / latency / power model of a whole Corona
 * (or baseline) system — the analytical twin of corona::core's event
 * simulator.
 *
 * Assumptions, each tied to its paper section:
 *  - MWSR crossbar service (Section 3.2.1): each destination owns one
 *    DWDM channel moving waveguides x wavelengths x 2 bits per 5 GHz
 *    clock (modulation on both edges). Accepted throughput is bounded
 *    by the most-loaded channel; token arbitration (Section 3.2.3)
 *    derates the channel by the handoff dead time between sending
 *    episodes — the flying "channel token" pays one ring hop per
 *    handoff, the prior-art "slot token" scheme stops one clock at
 *    every node (Section 6).
 *  - Mesh baselines (Section 4): dimension-order wormhole routing at
 *    5 clocks per hop; accepted throughput is bounded by the busiest
 *    link's share of routed bytes (computed exactly from the traffic
 *    matrix), derated by the wormhole efficiency factor the simulator
 *    also applies.
 *  - Memory (Section 3.1.2, Table 4): one controller per cluster;
 *    deterministic line serialization over the off-stack link makes
 *    each controller an M/D/1 server with a 20 ns array access.
 *  - Closed-loop load (Section 4's trace replay): 1024 threads with a
 *    bounded outstanding-miss window self-throttle, so accepted
 *    bandwidth and latency are solved as a fixed point — offered load
 *    drives queueing delay, delay (over the window, by Little's law)
 *    caps the issue rate.
 *  - Power (Figure 11): crossbar photonic power is continuous (laser
 *    + trimming + modulation do not scale down with traffic); mesh
 *    power is 196 pJ per transaction-hop, dynamic only.
 *
 * No campaign runs this model: every campaign cell is simulated. It
 * gives the closed forms that the simulator's per-stage latencies are
 * to be compared with (ROADMAP item 3).
 */

#ifndef CORONA_MODEL_ANALYTIC_HH
#define CORONA_MODEL_ANALYTIC_HH

#include <cstddef>
#include <string>

#include "corona/config.hh"
#include "model/traffic.hh"

namespace corona::model {

/** Crossbar arbitration scheme (Section 3.2.3 vs. Section 6). */
enum class TokenScheme
{
    Channel, ///< Corona: the token flies past non-participants.
    Slot,    ///< Prior art: the token stops one clock at every node.
};

/** One system the closed-form model evaluates: its fabric, memory
 * and sizes, and the workload driving it. */
struct DesignPoint
{
    core::NetworkKind network = core::NetworkKind::XBar;
    core::MemoryKind memory = core::MemoryKind::OCM;

    std::size_t clusters = 64;          ///< Must be a perfect square.
    std::size_t threads_per_cluster = 16;
    std::size_t thread_window = 12;

    /** DWDM comb width per waveguide (Section 3.2.1: 64). */
    std::size_t wavelengths_per_guide = 64;
    /** Waveguides bundled per crossbar channel (4 in the paper). */
    std::size_t channel_waveguides = 4;
    TokenScheme token_scheme = TokenScheme::Channel;

    /** Off-stack channels per memory controller (1 in the paper;
     * more scales per-controller bandwidth linearly). */
    std::size_t memory_channels = 1;

    /** Workload driving the point (a Table 3 name). */
    std::string workload = "Uniform";

    /** Payload bytes the channel bundle moves per 5 GHz clock:
     * waveguides x wavelengths x 2 bits (DDR modulation) / 8. */
    double channelBytesPerClock() const;
    /** One channel's data bandwidth, bytes per second. */
    double channelBandwidthBytesPerSecond() const;
    /** Per-controller off-stack bandwidth, bytes per second. */
    double memoryControllerBandwidth() const;
};

/** Map one of the simulator's SystemConfigs onto the model's design
 * axes (wavelengths are backed out of bytes_per_clock at the config's
 * waveguide count; the token scheme from token_node_pause). Fatal
 * when memory_bandwidth_scale rounds to more channels than fit a
 * size_t. */
DesignPoint fromConfig(const core::SystemConfig &config,
                       const std::string &workload);

/** What the closed-form model predicts for one design point. */
struct Prediction
{
    double offered_bytes_per_second = 0.0;
    /** Accepted (achieved) main-memory bandwidth, bytes per second. */
    double achieved_bytes_per_second = 0.0;
    double avg_latency_ns = 0.0;
    double p95_latency_ns = 0.0;
    double network_power_w = 0.0;
    double token_wait_ns = 0.0;

    /** Network-side accepted-throughput bound, bytes per second. */
    double network_cap_bytes_per_second = 0.0;
    /** Memory-side accepted-throughput bound, bytes per second. */
    double memory_cap_bytes_per_second = 0.0;
    /** Utilization of the binding resource at the solution. */
    double bottleneck_utilization = 0.0;
    /** Mean mesh hop traversals per second (mesh power input). */
    double hop_traversals_per_second = 0.0;
};

/** Model tuning knobs (defaults mirror the simulator's constants). */
struct ModelParams
{
    double clock_hz = 5e9;           ///< Digital clock (Section 3).
    double token_hop_seconds = 25e-12; ///< Ring hop (8 clocks / 64).
    double slot_pause_seconds = 200e-12; ///< Slot scheme per-node stop.
    std::size_t channel_batch = 16;  ///< Messages per token grant.
    double mesh_hop_seconds = 1e-9;  ///< 5 clocks per hop.
    double mesh_link_efficiency = 0.8; ///< Wormhole derate (Section 4).
    double mem_access_seconds = 20e-9; ///< Array access (Table 4).
    double local_hop_seconds = 200e-12; ///< Hub traversal.
    /** Fixed-point iterations for the closed-loop solve. */
    std::size_t iterations = 48;
    /** Crossbar continuous power at paper scale, watts (Figure 11). */
    double xbar_power_w = 26.0;
    /** Mesh dynamic energy per transaction-hop, joules (Figure 11). */
    double mesh_energy_per_hop_j = 196e-12;
};

/**
 * The analytical performance model. Stateless apart from its
 * parameters; evaluate() is safe to call concurrently.
 */
class AnalyticModel
{
  public:
    explicit AnalyticModel(const ModelParams &params = {});

    /** Evaluate @p point. */
    Prediction evaluate(const DesignPoint &point) const;

    const ModelParams &params() const { return _params; }

  private:
    ModelParams _params;
};

} // namespace corona::model

#endif // CORONA_MODEL_ANALYTIC_HH
