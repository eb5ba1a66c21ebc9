/**
 * @file
 * Electrical 2D-mesh interconnect baselines (Section 4).
 *
 * Two configurations from the paper:
 *  - HMesh: 1.28 TB/s bisection bandwidth, 5-clock per-hop latency;
 *  - LMesh: 0.64 TB/s bisection bandwidth, 5-clock per-hop latency.
 * On an 8x8 mesh the bisection cuts 8 channels per direction, so the
 * raw per-link rate is bisection/8 (160 GB/s for HMesh). The model
 * derates links by a wormhole flow-control efficiency factor: routers
 * simulated at message granularity lack flit-level head-of-line
 * blocking, and real DOR wormhole meshes saturate at roughly 60-80% of
 * the ideal cut capacity on uniform traffic (Dally & Towles). The
 * default factor of 0.8 restores that behaviour.
 *
 * send() parks each message's body in a mesh-owned pool, a body vector
 * plus a free list, and injects an 8-byte Flit naming its slot; the
 * destination router's ejection reads the body back and frees the slot.
 * The pool holds only the messages in flight, and reset() keeps its
 * storage.
 */

#ifndef CORONA_MESH_ELECTRICAL_MESH_HH
#define CORONA_MESH_ELECTRICAL_MESH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mesh/router.hh"
#include "noc/interconnect.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"

namespace corona::mesh {

/** Mesh configuration. */
struct MeshParams
{
    /** Bisection bandwidth, bytes per second. */
    double bisection_bytes_per_second = 1.28e12;
    /** Per-hop latency in clocks (forwarding + propagation). */
    std::size_t hop_latency_clocks = 5;
    /** Wormhole flow-control efficiency: fraction of the raw link rate
     * a message-granularity router model should expose (see file
     * comment). */
    double link_efficiency = 0.8;
    /** Router buffering. */
    RouterParams router;

    bool operator==(const MeshParams &) const = default;
};

/** HMesh configuration (1.28 TB/s bisection). */
MeshParams hmeshParams();

/** LMesh configuration (0.64 TB/s bisection). */
MeshParams lmeshParams();

/**
 * 2D-mesh interconnect built from wormhole routers.
 */
class ElectricalMesh : public noc::Interconnect
{
  public:
    /**
     * @param eq Event queue.
     * @param clock Digital clock (5 GHz).
     * @param geom Die geometry (radix x radix grid).
     * @param params Mesh configuration.
     * @param display_name Reported name ("HMesh"/"LMesh").
     */
    ElectricalMesh(sim::EventQueue &eq, const sim::ClockDomain &clock,
                   const topology::Geometry &geom, const MeshParams &params,
                   std::string display_name);

    void send(const noc::Message &msg) override;
    std::string name() const override { return _name; }

    void reset() override;

    std::size_t hopCount(topology::ClusterId src,
                         topology::ClusterId dst) const override;

    /** Per-link bandwidth, bytes per second. */
    double linkBandwidth() const { return _linkBandwidth; }

    /** Bisection bandwidth, bytes per second. */
    double bisectionBandwidth() const;

    Router &router(topology::ClusterId id) { return *_routers.at(id); }

    /** Messages parked in the pool: sent and not yet delivered. */
    std::size_t
    inFlight() const
    {
        return _bodies.size() - _freeSlots.size();
    }

  private:
    /** Store @p msg, stamped with the injection tick, in a free slot
     * of the pool. Panics rather than wrap the 32-bit slot index. */
    std::uint32_t park(const noc::Message &msg);

    /** Router @p at ejects @p flit: read its body back, free its slot
     * and deliver it. */
    void eject(topology::ClusterId at, Flit flit);

    sim::EventQueue &_eq;
    const topology::Geometry &_geom;
    std::string _name;
    double _linkBandwidth;
    double _bisection;
    std::vector<std::unique_ptr<Router>> _routers;
    /** Bodies of the messages in flight, indexed by their flits'
     * slots. */
    std::vector<noc::Message> _bodies;
    /** Slots of _bodies free for reuse, the last freed at the back. */
    std::vector<std::uint32_t> _freeSlots;
};

} // namespace corona::mesh

#endif // CORONA_MESH_ELECTRICAL_MESH_HH
