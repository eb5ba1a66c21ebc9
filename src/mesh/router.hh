/**
 * @file
 * Wormhole mesh router.
 *
 * One router per cluster. Four neighbour input buffers plus an unbounded
 * local injection queue feed four bandwidth-limited output ports and a
 * local ejection port. Forwarding is dimension-order; a message holds its
 * output port for its full serialization time (message-granularity
 * wormhole), and credit back-pressure from the downstream input buffer
 * stalls the port — and transitively the whole upstream path — exactly as
 * buffer exhaustion stalls a wormhole network.
 *
 * A router owns its output ports and input buffers in place, and a hop
 * runs as direct calls between neighbouring routers: the port reserves
 * a credit on the neighbour's input, serializes, waits out the hop
 * latency and pushes into that input; popping an input restarts the
 * upstream port that waits for its credit.
 *
 * A hop moves only what it reads. The message body stays parked in its
 * mesh from send to ejection (ElectricalMesh), and the rings, both hop
 * events and the ejection handler carry an 8-byte Flit: the body's
 * slot, the destination routing reads and the kind serialization reads.
 */

#ifndef CORONA_MESH_ROUTER_HH
#define CORONA_MESH_ROUTER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "mesh/routing.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"

namespace corona::mesh {

/** Router tuning parameters. */
struct RouterParams
{
    /** Depth of each neighbour input buffer, messages. */
    std::size_t input_buffer_depth = 8;
    /** Depth of each output port's queue, messages. */
    std::size_t link_queue_depth = 4;

    bool operator==(const RouterParams &) const = default;
};

/** Per-hop timing, the same for every link of one mesh. */
struct HopTiming
{
    /** Serialization time of each MsgKind's wire size, ticks. */
    std::array<sim::Tick, noc::numMsgKinds> serialization{};
    /** Latency after serialization (forwarding + propagation), ticks. */
    sim::Tick latency = 0;
};

/**
 * Timing of a link moving @p link_bytes_per_second: a message takes the
 * ceiling of its wire bytes over the rate, and never 0 ticks, to
 * serialize. Throws std::invalid_argument unless the rate is positive.
 */
HopTiming hopTiming(double link_bytes_per_second, sim::Tick hop_latency);

/**
 * What a mesh hop carries: the parked body's slot, and the two fields
 * a router reads. The mesh checks at construction that @c dst can
 * name every cluster.
 */
struct Flit
{
    /** Index of the message body in its mesh's pool. */
    std::uint32_t slot = 0;
    /** Destination cluster. */
    std::uint16_t dst = 0;
    noc::MsgKind kind = noc::MsgKind::ReadReq;
};

static_assert(sizeof(Flit) == 8, "a flit is one word");

/**
 * A single mesh router.
 *
 * The mesh fabric wires routers together with connect(): each output
 * port then feeds the neighbour's opposite input buffer. Routers hold
 * pointers into each other, so a router never moves.
 */
class Router
{
  public:
    using Eject = std::function<void(Flit)>;

    /**
     * @param eq Event queue.
     * @param geom Die geometry.
     * @param id This router's cluster id.
     * @param timing Per-hop timing of every output port.
     * @param params Buffering parameters; a zero depth throws
     *     std::invalid_argument.
     */
    Router(sim::EventQueue &eq, const topology::Geometry &geom,
           topology::ClusterId id, const HopTiming &timing,
           const RouterParams &params = {});

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Connect the output port in direction @p d to @p next_router. */
    void connect(Direction d, Router &next_router);

    /** Register the local ejection callback. */
    void setEject(Eject eject) { _eject = std::move(eject); }

    /** Inject a locally sourced message (unbounded NIC queue). */
    void inject(Flit flit);

    /** Messages queued in the input buffer for traffic arriving from
     * direction @p d, plus the credits reserved for messages on their
     * way into it. */
    std::size_t inputDepth(Direction d) const;

    /** Forwarding loop; safe to call whenever state may have changed.
     * A pass visits only the stages whose head can move now. */
    void process();

    topology::ClusterId id() const { return _id; }

    /** Messages parked in the local injection queue right now. */
    std::size_t injectionDepth() const { return _injection.size(); }

    /** Drop all buffered traffic and restore the pristine
     * post-construction state. Port/eject wiring is kept. Requires the
     * event queue to be reset alongside. */
    void reset();

  private:
    /** An output port: the link toward one neighbour. */
    struct OutputPort
    {
        /** Messages waiting to serialize. */
        noc::RingFifo<Flit> queue;
        /** The router this port belongs to. */
        Router *owner = nullptr;
        /** The neighbour it feeds; null while unconnected. */
        Router *next = nullptr;
        /** Index of the neighbour's input buffer it feeds. */
        std::uint8_t arrival = 0;
        /** A message is serializing. */
        bool busy = false;
        /** The head message waits for a credit on the neighbour's
         * input; popping that input restarts the port. */
        bool waitingForCredit = false;
    };

    /** A neighbour input buffer with credit flow control. */
    struct InputBuffer
    {
        noc::RingFifo<Flit> fifo;
        /** Credits held by messages serializing or in flight toward
         * this buffer. */
        std::size_t reserved = 0;
        /** The neighbour's port that feeds this buffer. */
        OutputPort *upstream = nullptr;
    };

    /** Forwarding stages: 0..3 are the E,W,N,S input buffers (a
     * Direction's value), 4 the injection queue. */
    static constexpr std::size_t numStages = 5;
    static constexpr std::size_t injectionStage = 4;

    /** True when @p stage holds a message that can move now: its head
     * ejects, or its head's port queue has room. */
    bool ready(std::size_t stage) const;

    /** Move the head of ready() @p stage one step on. */
    void forward(std::size_t stage);

    /** Pop the head of non-empty @p stage, clearing the stage's bit
     * once it is empty and caching the new head's port otherwise. */
    void popStage(std::size_t stage);

    /** Start serializing @p port's head message if the port is idle
     * and the neighbour's input has a credit to reserve. */
    void tryStart(OutputPort &port);

    /** @p flit finished serializing on @p port. */
    void finishSerialization(OutputPort &port, Flit flit);

    /** @p flit arrives in input buffer @p arrival, consuming the credit
     * its sender reserved. */
    void receive(std::size_t arrival, Flit flit);

    sim::EventQueue &_eq;
    topology::ClusterId _id;
    HopTiming _timing;
    std::size_t _inputDepth;
    std::size_t _portDepth;
    /** Dimension-order output port toward each destination cluster:
     * route() evaluated once per destination at construction. */
    std::vector<Direction> _routes;

    /** Neighbour input buffers indexed by arrival direction (E,W,N,S). */
    std::array<InputBuffer, 4> _inputs;
    /** Local injection queue (bounded end-to-end by MSHRs). */
    noc::RingFifo<Flit> _injection;
    /** Output ports indexed by direction (E,W,N,S). */
    std::array<OutputPort, 4> _ports;
    Eject _eject;
    /** Bit s is set while stage s holds a message: set where a message
     * enters an empty stage (receive(), inject()), cleared where a pop
     * empties the stage. */
    unsigned _nonEmpty = 0;
    /** Route of each non-empty stage's head, set whenever a message
     * becomes the head: where it enters an empty stage, and where a
     * pop leaves a new one. ready() and forward() read it. */
    std::array<Direction, numStages> _headOut{};
    /** Round-robin pointer over input stages for output arbitration. */
    std::size_t _rr = 0;
    /** Reentrancy guard: process() may be re-triggered while it runs
     * (a port starting a transmission, an ejection that injects,
     * restarts across neighbours). */
    bool _processing = false;
    bool _reprocess = false;
};

} // namespace corona::mesh

#endif // CORONA_MESH_ROUTER_HH
