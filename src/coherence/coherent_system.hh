/**
 * @file
 * Executable MOESI directory-coherence system.
 *
 * 64 cache peers, a directory entry per line banked at the line's home
 * cluster, and two invalidation transports: unicast invalidates over
 * the crossbar (one message per sharer) or a single broadcast-bus
 * message reaching every cluster (Section 3.2.2). The system executes
 * transactions atomically (the functional level the paper architected
 * the protocol at) and counts every protocol message, which drives the
 * broadcast-ablation bench.
 *
 * One Corona directory tracks at most 64 caches, so a full bit-vector
 * sharer list fits. Everything the system knows about a line (its
 * home bank, memory and write versions, directory entry) lives in one
 * flat table keyed by line.
 */

#ifndef CORONA_COHERENCE_COHERENT_SYSTEM_HH
#define CORONA_COHERENCE_COHERENT_SYSTEM_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "coherence/cache_peer.hh"
#include "coherence/protocol.hh"
#include "sim/flat_map.hh"
#include "topology/address_map.hh"

namespace corona::coherence {

/** Maximum caches a directory can track. */
inline constexpr std::size_t maxPeers = 64;

/** Sharer bit-vector. */
using SharerSet = std::bitset<maxPeers>;

/** Directory knowledge about one line. */
struct DirectoryEntry
{
    /** Cache holding the line in M, O, or E (supplies data). */
    std::optional<std::size_t> owner;
    /** Caches holding the line in S (and the owner when in O). */
    SharerSet sharers;

    bool
    uncached() const
    {
        return !owner && sharers.none();
    }
};

/** Invalidation transport policy. */
enum class InvalPolicy
{
    Unicast,   ///< One crossbar message per sharer.
    Broadcast, ///< One broadcast-bus message when sharers >= threshold.
};

/** System configuration. */
struct CoherenceConfig
{
    std::size_t peers = 64;
    InvalPolicy policy = InvalPolicy::Broadcast;
    /** Minimum sharer count at which the broadcast bus is preferred. */
    std::size_t broadcast_threshold = 2;
};

/** Destination id used for a broadcast (all peers). */
inline constexpr std::size_t broadcastDest = static_cast<std::size_t>(-1);

/**
 * The coherent 64-cluster L2 system.
 */
class CoherentSystem
{
  public:
    /**
     * Hook receiving the protocol messages that travel as real network
     * traffic (Inval, InvalBcast, FwdGetS, FwdGetM, PutM) with their
     * endpoints; GetS/GetM/Data ride the front end's existing
     * request/response pair, and PutS/PutAck/InvAck are absorbed
     * locally. For an InvalBcast, `to` names the requester excluded
     * from the snoop (broadcastDest when nobody is spared). The hook
     * must not call back into the system.
     */
    using Emitter = std::function<void(CoherenceMsg msg, std::size_t from,
                                       std::size_t to, topology::Addr line)>;

    explicit CoherentSystem(const CoherenceConfig &config = {});

    /** Install the network-traffic hook (empty = atomic-only mode). */
    void setEmitter(Emitter emitter) { _emitter = std::move(emitter); }

    /** Execute a load by @p peer; returns the version observed. */
    std::uint64_t read(std::size_t peer, topology::Addr line);

    /** Execute a store by @p peer; returns the version produced. */
    std::uint64_t write(std::size_t peer, topology::Addr line);

    /** Evict @p line from @p peer (writeback when dirty). */
    void evict(std::size_t peer, topology::Addr line);

    /**
     * Explicit-home variants: bank @p line under @p home instead of the
     * internal address map. The home must be a pure function of the
     * line (the workload's contract): the first access binds it, and
     * an access naming another home is fatal.
     */
    std::uint64_t read(std::size_t peer, topology::Addr line,
                       std::size_t home);
    std::uint64_t write(std::size_t peer, topology::Addr line,
                        std::size_t home);
    void evict(std::size_t peer, topology::Addr line, std::size_t home);

    /** Bind @p line to bank @p home without an access (fatal when it
     * is bound to another). */
    void bindHome(topology::Addr line, std::size_t home);

    /** Bank @p line is bound to; empty when no access named it. */
    std::optional<std::size_t> boundHome(topology::Addr line) const;

    /** Current globally visible version of @p line (0 = never written). */
    std::uint64_t memoryVersion(topology::Addr line) const;

    /** Messages of each type sent so far. */
    std::uint64_t messageCount(CoherenceMsg msg) const;

    /** Total protocol messages. */
    std::uint64_t totalMessages() const;

    const CachePeer &peer(std::size_t id) const { return _peers.at(id); }
    const CoherenceConfig &config() const { return _config; }

    /**
     * Verify global invariants (single writer, owner/sharer agreement,
     * reader freshness); throws PanicError on violation.
     */
    void checkInvariants() const;

    /** Return to the pristine post-construction state. */
    void reset();

  private:
    /** Everything known about one line. */
    struct LineState
    {
        DirectoryEntry entry;
        std::size_t home = 0;
        /** Version memory holds (0 = never written back). */
        std::uint64_t memory = 0;
        /** Last version a store produced. */
        std::uint64_t writes = 0;
    };

    /** @p line's state, bound to @p home on first touch; fatal when
     * bound to another home. */
    LineState &touch(topology::Addr line, std::size_t home);

    /** Throw std::out_of_range naming @p op for a bad peer or home. */
    void checkIds(const char *op, std::size_t peer, std::size_t home) const;

    /** Invalidate all sharers of @p line except @p except. */
    void invalidateSharers(DirectoryEntry &entry, topology::Addr line,
                           std::size_t home, std::size_t except);

    void count(CoherenceMsg msg, std::uint64_t n = 1);

    void emit(CoherenceMsg msg, std::size_t from, std::size_t to,
              topology::Addr line);

    /** Directory bank a line is (or will be) tracked under. */
    std::size_t homeOf(topology::Addr line) const;

    /** Latest committed version (memory or dirty owner). */
    std::uint64_t currentVersion(topology::Addr line) const;

    CoherenceConfig _config;
    std::vector<CachePeer> _peers;
    topology::AddressMap _map;
    /** Every line any access or bindHome named. */
    sim::FlatMap<LineState> _lines;
    std::array<std::uint64_t, numCoherenceMsgs> _msgCounts{};
    Emitter _emitter;
};

} // namespace corona::coherence

#endif // CORONA_COHERENCE_COHERENT_SYSTEM_HH
