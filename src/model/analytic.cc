#include "model/analytic.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mesh/electrical_mesh.hh"
#include "model/queueing.hh"
#include "noc/message.hh"
#include "sim/logging.hh"

namespace corona::model {

double
DesignPoint::channelBytesPerClock() const
{
    // DDR modulation: every wavelength moves 2 bits per clock.
    return static_cast<double>(channel_waveguides *
                               wavelengths_per_guide) *
           2.0 / 8.0;
}

double
DesignPoint::channelBandwidthBytesPerSecond() const
{
    return channelBytesPerClock() * 5e9;
}

double
DesignPoint::memoryControllerBandwidth() const
{
    const double base =
        memory == core::MemoryKind::OCM ? 160e9 : 15e9;
    return base * static_cast<double>(memory_channels);
}

DesignPoint
fromConfig(const core::SystemConfig &config, const std::string &workload)
{
    DesignPoint point;
    point.network = config.network;
    point.memory = config.memory;
    point.clusters = config.clusters;
    point.threads_per_cluster = config.threads_per_cluster;
    point.thread_window = config.thread_window;
    const double channels = config.memory_bandwidth_scale + 0.5;
    // A size_t cast of a value outside [0, 2^64) is undefined.
    if (!(channels >= 0.0 && channels < 0x1p64)) {
        std::ostringstream os;
        os << "model: memory_bandwidth_scale "
           << config.memory_bandwidth_scale
           << " does not round to a memory channel count that fits "
              "a size_t";
        sim::fatal(os.str());
    }
    point.memory_channels = std::max<std::size_t>(
        1, static_cast<std::size_t>(channels));
    point.workload = workload;
    if (config.network == core::NetworkKind::XBar) {
        point.channel_waveguides = 4;
        // Invert channelBytesPerClock at the fixed bundle width.
        point.wavelengths_per_guide = static_cast<std::size_t>(
            config.xbar_channel.bytes_per_clock * 8 / 2 /
            point.channel_waveguides);
        point.token_scheme =
            config.xbar_channel.token_node_pause > 0
                ? TokenScheme::Slot
                : TokenScheme::Channel;
    }
    return point;
}

AnalyticModel::AnalyticModel(const ModelParams &params) : _params(params)
{
}

namespace {

/** Whole-clock serialization time of a message, seconds. */
double
serialization(double bytes, double bytes_per_clock, double clock_hz)
{
    return std::ceil(bytes / bytes_per_clock) / clock_hz;
}

} // namespace

Prediction
AnalyticModel::evaluate(const DesignPoint &point) const
{
    const TrafficDescriptor &d = descriptorFor(
        point.workload, point.clusters, point.threads_per_cluster);
    const ModelParams &p = _params;

    Prediction out;
    out.offered_bytes_per_second = d.offered_bytes_per_second;

    const double line = noc::cacheLineBytes;
    const double threads =
        static_cast<double>(point.clusters * point.threads_per_cluster);
    const double window = static_cast<double>(point.thread_window);

    // Wire bytes per miss by direction (writes carry the line out,
    // reads carry it back).
    const double req_bytes =
        d.write_fraction * (noc::headerBytes + noc::cacheLineBytes) +
        (1.0 - d.write_fraction) * noc::headerBytes;
    const double resp_bytes =
        d.write_fraction * noc::headerBytes +
        (1.0 - d.write_fraction) *
            (noc::headerBytes + noc::cacheLineBytes);
    const double net_bytes_per_miss =
        (1.0 - d.local_fraction) * (req_bytes + resp_bytes);

    // ------------------------------------------------ capacity bounds
    const double mc_bw = point.memoryControllerBandwidth();
    const double line_service = line / mc_bw;
    out.memory_cap_bytes_per_second =
        d.max_home_share > 0.0 ? mc_bw / d.max_home_share : 1e30;

    double token_handoff = 0.0;
    double token_hop_eff = p.token_hop_seconds;
    double channel_bw = 0.0;
    double token_eta = 1.0;
    double link_bw = 0.0;
    switch (point.network) {
      case core::NetworkKind::XBar: {
        channel_bw = point.channelBandwidthBytesPerSecond();
        if (point.token_scheme == TokenScheme::Slot)
            token_hop_eff += p.slot_pause_seconds;
        // Under saturation the next contender is (on average) the
        // adjacent cluster, so a handoff costs one effective hop.
        token_handoff = token_hop_eff;
        const double mean_msg_seconds =
            (serialization(req_bytes, point.channelBytesPerClock(),
                           p.clock_hz) +
             serialization(resp_bytes, point.channelBytesPerClock(),
                           p.clock_hz)) /
            2.0;
        const double batch_service =
            static_cast<double>(p.channel_batch) * mean_msg_seconds;
        token_eta = batch_service / (batch_service + token_handoff);
        out.network_cap_bytes_per_second =
            (net_bytes_per_miss > 0.0 && d.max_channel_share > 0.0)
                ? line * channel_bw * token_eta /
                      (net_bytes_per_miss * d.max_channel_share)
                : 1e30;
        break;
      }
      case core::NetworkKind::HMesh:
      case core::NetworkKind::LMesh: {
        const mesh::MeshParams mesh_params =
            point.network == core::NetworkKind::HMesh
                ? mesh::hmeshParams()
                : mesh::lmeshParams();
        const auto radix = static_cast<double>(
            static_cast<std::size_t>(std::sqrt(
                static_cast<double>(point.clusters)) +
                                     0.5));
        link_bw = mesh_params.bisection_bytes_per_second / radix *
                  p.mesh_link_efficiency;
        out.network_cap_bytes_per_second =
            (net_bytes_per_miss > 0.0 && d.max_mesh_link_share > 0.0)
                ? line * link_bw /
                      (net_bytes_per_miss * d.max_mesh_link_share)
                : 1e30;
        break;
      }
      case core::NetworkKind::Ideal:
        out.network_cap_bytes_per_second = 1e30;
        break;
    }

    const double cap = std::min(out.memory_cap_bytes_per_second,
                                out.network_cap_bytes_per_second);

    // ------------------------------------------- latency as f(load)
    const double radix = std::sqrt(static_cast<double>(point.clusters));
    const double directed_links =
        4.0 * radix * (radix - 1.0); // Interior mesh links, both ways.

    // Barrier bursts (Section 5): right after a barrier every thread
    // slams its window's worth of misses into the queues at once; the
    // backlog drains at the bottleneck's rate, so the mean request
    // sees about half the drain time as extra wait — even when the
    // *sustained* load is far below capacity.
    const double burst_outstanding =
        std::min(d.burst_misses_per_thread, window);
    const double burst_backlog_misses = threads * burst_outstanding;

    double token_wait_s = 0.0;
    const auto latencyAt = [&](double bw) {
        const double miss_rate = bw / line;
        const double net_bytes =
            miss_rate * net_bytes_per_miss; // Aggregate network load.

        // Memory: M/D/1 at the hottest controller.
        const double rho_mc =
            utilization(bw * d.max_home_share, mc_bw);
        const double burst_mem_wait =
            burst_backlog_misses * line * d.max_home_share /
            (2.0 * mc_bw);
        const double t_mem = p.mem_access_seconds + line_service +
                             md1Wait(rho_mc, line_service) +
                             burst_mem_wait;

        double t_net_rt = 0.0;
        switch (point.network) {
          case core::NetworkKind::XBar: {
            const double bpc = point.channelBytesPerClock();
            const double hot_channel =
                net_bytes * d.max_channel_share;
            const double rho_ch =
                utilization(hot_channel, channel_bw * token_eta);
            const double mean_msg_seconds =
                (serialization(req_bytes, bpc, p.clock_hz) +
                 serialization(resp_bytes, bpc, p.clock_hz)) /
                2.0;
            // Uncontested token wait: half a revolution on average.
            const double token_uncontested =
                static_cast<double>(point.clusters) * token_hop_eff /
                2.0;
            const double queue =
                md1Wait(rho_ch, mean_msg_seconds);
            token_wait_s = token_uncontested + queue;
            const double prop =
                d.mean_ring_hops * p.token_hop_seconds +
                1.0 / p.clock_hz; // Serpentine + retime clock.
            const double burst_net_wait =
                burst_backlog_misses * net_bytes_per_miss *
                d.max_channel_share /
                (2.0 * channel_bw * token_eta);
            t_net_rt = 2.0 * (token_wait_s + mean_msg_seconds +
                              prop + 1.0 / p.clock_hz) +
                       burst_net_wait;
            break;
          }
          case core::NetworkKind::HMesh:
          case core::NetworkKind::LMesh: {
            const double mean_msg_bytes =
                (req_bytes + resp_bytes) / 2.0;
            const double s_link = mean_msg_bytes / link_bw;
            const double rho_max = utilization(
                net_bytes * d.max_mesh_link_share, link_bw);
            const double avg_link = directed_links > 0.0
                                        ? net_bytes *
                                              d.mean_mesh_hops /
                                              directed_links
                                        : 0.0;
            const double rho_avg =
                utilization(avg_link, link_bw);
            // One bottleneck-link wait plus typical-link waits on the
            // remaining hops (mixed message sizes: M/M/1 envelope).
            const double queue =
                mm1Wait(rho_max, s_link) +
                std::max(0.0, d.mean_mesh_hops - 1.0) *
                    mm1Wait(rho_avg, s_link);
            const double one_way = d.mean_mesh_hops *
                                       p.mesh_hop_seconds +
                                   s_link + queue;
            const double burst_net_wait =
                burst_backlog_misses * net_bytes_per_miss *
                d.max_mesh_link_share / (2.0 * link_bw);
            t_net_rt = 2.0 * one_way + burst_net_wait;
            break;
          }
          case core::NetworkKind::Ideal:
            t_net_rt = 2.0 * 8.0 / p.clock_hz;
            break;
        }

        const double local_rt =
            2.0 * p.local_hop_seconds + t_mem;
        const double remote_rt =
            2.0 * p.local_hop_seconds + t_net_rt + t_mem;
        return d.local_fraction * local_rt +
               (1.0 - d.local_fraction) * remote_rt;
    };

    // -------------------------------------- closed-loop fixed point
    // Threads issue one miss per think interval while their window
    // has room; once latency exceeds window x think the window caps
    // the rate (Little's law). Solve B = threads*line / max(think,
    // L(B)/window) under the capacity bound by damped iteration.
    double bw = std::min(out.offered_bytes_per_second, cap);
    for (std::size_t i = 0; i < p.iterations; ++i) {
        const double lat = latencyAt(bw);
        double next = threads * line /
                      std::max(d.think_seconds, lat / window);
        next = std::min(next, cap);
        bw = 0.5 * (bw + next);
    }
    // Probe the unloaded base first: latencyAt overwrites the
    // captured token_wait_s, and the reported token wait must be the
    // operating point's (contention included), so evaluate bw last.
    const double base_latency = latencyAt(cap * 1e-6);
    const double latency = latencyAt(bw);

    out.achieved_bytes_per_second = bw;
    out.avg_latency_ns = latency * 1e9;
    // Queueing-dominated tail: the waits triple at the 95th
    // percentile while the deterministic part stays put.
    out.p95_latency_ns =
        (base_latency + 3.0 * std::max(0.0, latency - base_latency) +
         0.2 * base_latency) *
        1e9;
    out.token_wait_ns =
        point.network == core::NetworkKind::XBar ? token_wait_s * 1e9
                                                 : 0.0;
    out.bottleneck_utilization = utilization(bw, cap);

    // ----------------------------------------------------- power
    const double miss_rate = bw / line;
    switch (point.network) {
      case core::NetworkKind::XBar: {
        // Scale the paper's 26 W continuous figure with the number of
        // powered wavelength instances.
        const double instances = static_cast<double>(
            point.clusters * point.channel_waveguides *
            point.wavelengths_per_guide);
        out.network_power_w =
            p.xbar_power_w * instances / (64.0 * 4.0 * 64.0);
        break;
      }
      case core::NetworkKind::HMesh:
      case core::NetworkKind::LMesh:
        out.hop_traversals_per_second =
            miss_rate * (1.0 - d.local_fraction) * 2.0 *
            d.mean_mesh_hops;
        out.network_power_w =
            out.hop_traversals_per_second * p.mesh_energy_per_hop_j;
        break;
      case core::NetworkKind::Ideal:
        out.network_power_w = 0.0;
        break;
    }
    return out;
}

} // namespace corona::model
