/**
 * @file
 * Per-cluster hub (Figure 2(b)).
 *
 * The hub routes message traffic between the L2, directory, memory
 * controller, network interface, and the optical (or mesh) interconnect.
 * In the network simulation the hub owns the cluster's MSHR file, turns
 * thread misses into request messages, dispatches arriving requests to
 * the local memory controller, and completes fills back to the waiting
 * threads. Cluster-local accesses bypass the network with a one-clock
 * hub traversal.
 */

#ifndef CORONA_CORONA_HUB_HH
#define CORONA_CORONA_HUB_HH

#include "memory/memory_controller.hh"
#include "memory/mshr.hh"
#include "noc/interconnect.hh"
#include "noc/ring_fifo.hh"
#include "sim/event_queue.hh"

namespace corona::core {

/**
 * One cluster's hub: MSHRs + request/response plumbing.
 */
class Hub
{
  public:
    /** A thread waiting on a miss (thread id and ready tick). */
    using Waiter = memory::MshrFile::Waiter;

    /**
     * The run that owns the threads. Every fill and every stall retry
     * of a hub goes to its one bound client.
     */
    class Client
    {
      public:
        /** The line @p waiter missed on has returned. */
        virtual void fill(const Waiter &waiter) = 0;

        /** An MSHR freed: @p thread, stalled on the full file, may
         * issue again. */
        virtual void retry(std::uint32_t thread) = 0;

      protected:
        ~Client() = default;
    };

    /**
     * @param eq Event queue.
     * @param cluster This cluster.
     * @param network Shared on-stack interconnect.
     * @param mc This cluster's memory controller.
     * @param mshrs MSHR file capacity.
     * @param local_hop Hub traversal latency for local accesses, ticks.
     */
    Hub(sim::EventQueue &eq, topology::ClusterId cluster,
        noc::Interconnect &network, memory::MemoryController &mc,
        std::size_t mshrs, sim::Tick local_hop);

    /** Outcome of an issue attempt. */
    enum class Issue
    {
        Sent,      ///< Primary miss: request entered the system.
        Coalesced, ///< Attached to an in-flight miss on the same line.
        MshrFull,  ///< Stalled; retry via onMshrFree.
    };

    /**
     * Bind the client fills and retries go to (null unbinds). A run
     * binds itself for its lifetime; reset() unbinds.
     */
    void bind(Client *client) { _client = client; }

    /**
     * Issue an L2 miss for @p line (home @p home). The client's fill
     * runs for @p waiter when the data returns.
     */
    Issue issueMiss(topology::Addr line, topology::ClusterId home,
                    bool write, Waiter waiter);

    /** Hand @p waiter's fill to the client now; panics when no client
     * is bound. */
    void wake(const Waiter &waiter);

    /**
     * Issue a fire-and-forget writeback of @p line to @p home (coherent
     * front end: PutM / write-through store). No MSHR is consumed and
     * no thread waits: the write travels as a normal WriteReq with the
     * sideband tag bit set, and the memory controller's ack is absorbed
     * instead of completing a fill.
     */
    void issueWriteback(topology::Addr line, topology::ClusterId home);

    /** Tag bit marking sideband (no-waiter) traffic. Line addresses
     * must stay below this bit — the coherent front end asserts it. */
    static constexpr std::uint64_t sidebandBit = 1ull << 63;

    /** Queue @p thread for a retry when an MSHR frees (FIFO). */
    void stallOnMshr(std::uint32_t thread) { _stalled.push_back(thread); }

    /** Network delivered a request for this cluster's memory. */
    void handleRequest(const noc::Message &msg);

    /** Network delivered a response to this cluster's earlier request. */
    void handleResponse(const noc::Message &msg);

    const memory::MshrFile &mshrs() const { return _mshrs; }
    topology::ClusterId cluster() const { return _cluster; }

    /** Requests this hub issued into the network (excludes local). */
    std::uint64_t networkRequests() const { return _networkRequests; }

    /** Requests satisfied by the cluster-local memory controller. */
    std::uint64_t localRequests() const { return _localRequests; }

    /** Drop every outstanding miss, stalled retry, and statistic, and
     * unbind the client, restoring the pristine post-construction
     * state. Requires the event queue to be reset alongside. */
    void
    reset()
    {
        _mshrs.reset();
        _stalled.clear();
        _client = nullptr;
        _networkRequests = 0;
        _localRequests = 0;
    }

  private:
    /** The memory controller's response to @p response.dst: a remote
     * requester gets it over the network; a co-located one drops a
     * writeback ack or completes the fill one hub traversal later. */
    void respond(const noc::Message &response);

    /** Complete a fill: retire the MSHR and wake all waiters. */
    void completeFill(topology::Addr line);

    /** Encode (line) into a message tag and back. */
    static std::uint64_t tagOf(topology::Addr line) { return line; }
    static topology::Addr lineOf(std::uint64_t tag)
    {
        return tag & ~sidebandBit;
    }
    static bool sideband(std::uint64_t tag)
    {
        return (tag & sidebandBit) != 0;
    }

    sim::EventQueue &_eq;
    topology::ClusterId _cluster;
    noc::Interconnect &_network;
    memory::MemoryController &_mc;
    memory::MshrFile _mshrs;
    sim::Tick _localHop;
    /** Threads stalled on a full MSHR file, oldest first. */
    noc::RingFifo<std::uint32_t> _stalled;
    Client *_client = nullptr;

    std::uint64_t _networkRequests = 0;
    std::uint64_t _localRequests = 0;
};

} // namespace corona::core

#endif // CORONA_CORONA_HUB_HH
