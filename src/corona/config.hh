/**
 * @file
 * System configurations (Section 4).
 *
 * The paper simulates five combinations of on-stack network and memory
 * interconnect: XBar/OCM (Corona), HMesh/OCM, LMesh/OCM, HMesh/ECM, and
 * LMesh/ECM (the normalization baseline). SystemConfig carries every
 * setting of one simulated system; corona/knobs.hh names the points
 * (paperConfigs() returns the five in the paper's order) and the knobs
 * a scenario may set.
 */

#ifndef CORONA_CORONA_CONFIG_HH
#define CORONA_CORONA_CONFIG_HH

#include <cstdint>
#include <string>

#include "mesh/electrical_mesh.hh"
#include "xbar/optical_channel.hh"

namespace corona::core {

/** On-stack network selector. */
enum class NetworkKind
{
    XBar,  ///< Photonic crossbar with optical token arbitration.
    HMesh, ///< Electrical mesh, 1.28 TB/s bisection.
    LMesh, ///< Electrical mesh, 0.64 TB/s bisection.
    Ideal, ///< Contention-free reference (ablations only).
};

/** Off-stack memory selector. */
enum class MemoryKind
{
    OCM, ///< Optically connected memory, 10.24 TB/s.
    ECM, ///< Electrically connected memory, 0.96 TB/s.
};

/** Traffic-injection front end (how workload records reach the hub). */
enum class FrontendKind
{
    MissStream, ///< Workload records are injected as L2 misses directly.
    Coherent,   ///< References filter through L1/L2 + MOESI coherence.
};

/** Invalidation transport for the coherent front end. */
enum class InvalTransport
{
    Unicast,   ///< One crossbar message per sharer.
    Broadcast, ///< One broadcast-bus message when sharers >= threshold.
};

std::string to_string(NetworkKind kind);
std::string to_string(MemoryKind kind);

/** Full system configuration. */
struct SystemConfig
{
    NetworkKind network = NetworkKind::XBar;
    MemoryKind memory = MemoryKind::OCM;

    std::size_t clusters = 64;
    std::size_t threads_per_cluster = 16; ///< 4 cores x 4 threads.
    /** Per-cluster MSHR file capacity. */
    std::size_t mshrs_per_cluster = 128;
    /** Per-thread outstanding-miss window (memory-level parallelism). */
    std::size_t thread_window = 12;
    /** Hub traversal latency for cluster-local memory accesses, ticks. */
    sim::Tick local_hop = 200; // one clock

    xbar::ChannelParams xbar_channel;
    mesh::MeshParams mesh; ///< Populated for mesh networks.

    /** Multiplier on every controller's off-stack bandwidth (1.0
     * reproduces the paper's Table 4 rates). */
    double memory_bandwidth_scale = 1.0;

    /** Injection front end. MissStream replays workload records as L2
     * misses (the historical path); Coherent filters reference streams
     * through a per-cluster cache hierarchy and turns MOESI directory
     * traffic into real network messages. */
    FrontendKind frontend = FrontendKind::MissStream;
    /** Per-cluster cache shape (coherent front end only). A 0 KiB
     * level is absent; 0/0 is the pass-through hierarchy. */
    std::uint32_t l1_kib = 32;
    std::uint32_t l1_assoc = 4;
    std::uint32_t l2_kib = 256;
    std::uint32_t l2_assoc = 16;
    std::uint32_t cache_line = 64;
    /** Write-through stores (default write-back). */
    bool write_through = false;
    /** Invalidation transport and broadcast-bus threshold (§3.2.2). */
    InvalTransport inval_transport = InvalTransport::Broadcast;
    std::size_t broadcast_threshold = 2;

    /** Optional display label. Off-nominal design points set this so
     * campaign axes (and checkpoint fingerprints) stay unambiguous
     * when several points share a network/memory kind. */
    std::string label;

    /** The label when set, else "XBar/OCM" etc. */
    std::string name() const;

    std::size_t threads() const { return clusters * threads_per_cluster; }

    /** Every field equal: the identity SystemPool keys contexts on. */
    bool operator==(const SystemConfig &) const = default;
};

/** Build one configuration. */
SystemConfig makeConfig(NetworkKind network, MemoryKind memory);

} // namespace corona::core

#endif // CORONA_CORONA_CONFIG_HH
