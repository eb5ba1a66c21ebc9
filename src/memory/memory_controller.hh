/**
 * @file
 * Per-cluster memory controller.
 *
 * One controller per cluster (Section 3.1.2) so that memory bandwidth
 * scales with core count. The controller is the master of its off-stack
 * link: requests queue FIFO, the link serializes line transfers at the
 * configured rate, and every access pays the fixed array latency (20 ns
 * for both OCM and ECM, Table 4). Mat-level conflicts are modelled via
 * the attached DramModule.
 */

#ifndef CORONA_MEMORY_MEMORY_CONTROLLER_HH
#define CORONA_MEMORY_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "memory/dram.hh"
#include "noc/message.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "stats/stats.hh"

namespace corona::obs {
class EventTracer;
} // namespace corona::obs

namespace corona::memory {

/** Off-stack memory interconnect parameters (one controller's share). */
struct MemoryParams
{
    std::string name = "OCM";
    /** Per-controller off-stack bandwidth, bytes per second. */
    double bytes_per_second = 160e9;
    /** Fixed access latency, ticks (20 ns, Table 4). */
    sim::Tick access_latency = 20000;
    /** Extra per-access link delay (e.g. OCM daisy-chain pass-through). */
    sim::Tick link_delay = 0;
    /** DRAM die configuration. */
    DramParams dram;
};

/**
 * Event-driven memory controller.
 */
class MemoryController
{
  public:
    /** Throws std::invalid_argument, naming the bandwidth, unless
     * params.bytes_per_second is finite and positive and moves one
     * cache line in under 2^63 ticks. */
    MemoryController(sim::EventQueue &eq, topology::ClusterId cluster,
                     const MemoryParams &params);

    /**
     * Register the handler every response goes to when it is ready to
     * inject into the on-stack network (the cluster's hub, wired once
     * at construction). reset() keeps it.
     */
    void
    onResponse(sim::InlineFunction<void(const noc::Message &)> respond)
    {
        _respond = std::move(respond);
    }

    /**
     * Service a request delivered by the on-stack network. @p addr is
     * the line address (the network message's tag carries it opaque).
     * Its response goes to the onResponse handler.
     */
    void access(const noc::Message &request, topology::Addr addr);

    topology::ClusterId cluster() const { return _cluster; }
    const MemoryParams &params() const { return _params; }

    /** Requests serviced. */
    std::uint64_t accesses() const { return _accesses; }

    /** Bytes moved over the off-stack link. */
    std::uint64_t bytesMoved() const { return _bytesMoved; }

    /** Queue + service time statistics, ticks. */
    const stats::RunningStats &serviceTime() const { return _serviceTime; }

    /** Current queue depth (requests waiting for the link). */
    std::size_t queueDepth() const { return _queue.size(); }

    /** Peak queue depth observed. */
    std::size_t peakQueueDepth() const { return _peakQueue; }

    const DramModule &dram() const { return _dram; }

    /**
     * Attach a trace sink (null detaches): link issues and data-ready
     * completions get recorded. Observability wiring; reset() keeps
     * it.
     */
    void setTracer(obs::EventTracer *tracer) { _tracer = tracer; }

    /** Drop queued and in-flight requests, without responding to
     * any, free the link, reset the DRAM mats, and zero the
     * statistics. The slots' storage stays for the next cell while it
     * holds at most keptSlots slots, so a pooled cell does not grow it
     * again; a saturated cell can queue thousands of requests at one
     * controller, and a pooled system does not keep that peak. Requires
     * the event queue to be reset alongside (pending completion events
     * reference the slots being dropped). The response handler is
     * kept. */
    void reset();

    /** The most slots whose storage reset() keeps. */
    static constexpr std::size_t keptSlots = 32;

  private:
    /** One 64-byte slot. */
    struct Request
    {
        noc::Message request;
        topology::Addr addr = 0;
        sim::Tick arrived = 0;
    };

    void tryStart();
    void finish(std::uint32_t slot, sim::Tick data_ready);

    sim::EventQueue &_eq;
    topology::ClusterId _cluster;
    MemoryParams _params;
    DramModule _dram;

    /** Every request, queued or past the link, in one slot from
     * access() to finish(). Slot indices keep the scheduled callback
     * captures small (and inline); completions may be out of order
     * under mat conflicts, so freed slots recycle through a free list.
     * The slots only grow at the back, so none moves, and the slots,
     * the free list and the queue only grow to the peak number of
     * requests: a steady stream never allocates. */
    std::deque<Request> _slots;
    std::vector<std::uint32_t> _freeSlots;
    /** Slots of the requests waiting for the link, oldest first. */
    noc::RingFifo<std::uint32_t> _queue;
    bool _busy = false;
    /** Link serialization time of one cache line. */
    sim::Tick _lineTicks;

    std::uint64_t _accesses = 0;
    std::uint64_t _bytesMoved = 0;
    stats::RunningStats _serviceTime;
    std::size_t _peakQueue = 0;
    obs::EventTracer *_tracer = nullptr;
    sim::InlineFunction<void(const noc::Message &)> _respond;
};

/** Build the paper's OCM per-controller parameters (Table 4). */
MemoryParams ocmParams();

/** Build the paper's ECM per-controller parameters (Table 4). */
MemoryParams ecmParams();

} // namespace corona::memory

#endif // CORONA_MEMORY_MEMORY_CONTROLLER_HH
