/**
 * @file
 * Wormhole mesh router.
 *
 * One router per cluster. Four neighbour input buffers plus an unbounded
 * local injection queue feed four outgoing bandwidth-limited links and a
 * local ejection port. Forwarding is dimension-order; a message holds its
 * outgoing link for its full serialization time (message-granularity
 * wormhole), and credit back-pressure from the downstream input buffer
 * stalls the link — and transitively the whole upstream path — exactly as
 * buffer exhaustion stalls a wormhole network.
 */

#ifndef CORONA_MESH_ROUTER_HH
#define CORONA_MESH_ROUTER_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "mesh/routing.hh"
#include "noc/buffer.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"

namespace corona::mesh {

/** Router tuning parameters. */
struct RouterParams
{
    /** Depth of each neighbour input buffer, messages. */
    std::size_t input_buffer_depth = 8;
    /** Depth of each output link's injection queue, messages. */
    std::size_t link_queue_depth = 4;
};

/**
 * A single mesh router.
 *
 * The mesh fabric wires routers together: each outgoing link's
 * downstream buffer is the neighbour's opposite input buffer, and the
 * link's sink pushes into it and kicks the neighbour's forwarding loop.
 */
class Router
{
  public:
    using Eject = std::function<void(const noc::Message &)>;

    /**
     * @param eq Event queue.
     * @param geom Die geometry.
     * @param id This router's cluster id.
     * @param link_bytes_per_second Outgoing link bandwidth.
     * @param hop_latency Per-hop latency (forwarding + propagation).
     * @param params Buffering parameters.
     */
    Router(sim::EventQueue &eq, const topology::Geometry &geom,
           topology::ClusterId id, double link_bytes_per_second,
           sim::Tick hop_latency, const RouterParams &params = {});

    /** Connect the outgoing link in direction @p d to @p next_router. */
    void connect(Direction d, Router &next_router);

    /** Register the local ejection callback. */
    void setEject(Eject eject) { _eject = std::move(eject); }

    /** Inject a locally sourced message (unbounded NIC queue). */
    void inject(const noc::Message &msg);

    /** Input buffer for traffic arriving from direction @p d. Only the
     * link sink wired by connect() pushes into it. */
    const noc::CreditBuffer &inputBuffer(Direction d) const;

    /** Forwarding loop; safe to call whenever state may have changed. */
    void process();

    /** Outgoing link in direction @p d (null when unconnected). */
    const noc::BandwidthLink *link(Direction d) const;

    topology::ClusterId id() const { return _id; }

    /** Messages parked in the local injection queue right now. */
    std::size_t injectionDepth() const { return _injection.size(); }

    /** Drop all buffered traffic and restore the pristine
     * post-construction state. Link/eject wiring is kept. Requires the
     * event queue to be reset alongside. */
    void
    reset()
    {
        for (auto &buffer : _inputs)
            buffer->reset();
        _injection.clear();
        for (auto &link : _links) {
            if (link)
                link->reset();
        }
        _nonEmpty = 0;
        _rr = 0;
        _processing = false;
        _reprocess = false;
    }

  private:
    /** Forwarding stages: 0..3 are the E,W,N,S input buffers (a
     * Direction's value), 4 the injection queue. */
    static constexpr std::size_t numStages = 5;
    static constexpr std::size_t injectionStage = 4;

    /** Move the front message of non-empty @p stage one step on.
     * @return true when it moved (progress). */
    bool tryForward(std::size_t stage);

    /** Pop the front message of non-empty @p stage, clearing the
     * stage's bit once it is empty. */
    void popStage(std::size_t stage);

    topology::ClusterId _id;
    /** Dimension-order output port toward each destination cluster:
     * route() evaluated once per destination at construction. */
    std::vector<Direction> _routes;

    /** Neighbour input buffers indexed by arrival direction (E,W,N,S). */
    std::array<std::unique_ptr<noc::CreditBuffer>, 4> _inputs;
    /** Local injection queue (bounded end-to-end by MSHRs). */
    noc::RingFifo<noc::Message> _injection;
    /** Outgoing links indexed by direction (E,W,N,S). */
    std::array<std::unique_ptr<noc::BandwidthLink>, 4> _links;
    Eject _eject;
    /** Bit s is set while stage s holds a message: set where a message
     * enters (the link sink, inject()), cleared where a pop empties the
     * stage. process() skips a clear stage, where tryForward would
     * find nothing to move. */
    unsigned _nonEmpty = 0;
    /** Round-robin pointer over input stages for output arbitration. */
    std::size_t _rr = 0;
    /** Reentrancy guard: process() may be re-triggered from callbacks
     * fired while it runs (link onSpace, downstream pushes). */
    bool _processing = false;
    bool _reprocess = false;
};

} // namespace corona::mesh

#endif // CORONA_MESH_ROUTER_HH
