/**
 * @file
 * A coherent cache peer (one cluster's shared L2).
 *
 * Tracks the MOESI state and data version of every line it holds. Data
 * versions implement a lightweight value-consistency oracle: each write
 * advances the line's global version, and any subsequent reader must
 * observe that version — the invariant the protocol tests assert.
 */

#ifndef CORONA_COHERENCE_CACHE_PEER_HH
#define CORONA_COHERENCE_CACHE_PEER_HH

#include <cstdint>

#include "coherence/protocol.hh"
#include "sim/flat_map.hh"
#include "topology/address_map.hh"

namespace corona::coherence {

/**
 * Per-peer coherent line store.
 */
class CachePeer
{
  public:
    /** A held copy of a line. */
    struct Copy
    {
        MoesiState state = MoesiState::Invalid;
        std::uint64_t version = 0;
    };

    explicit CachePeer(std::size_t id) : _id(id) {}

    std::size_t id() const { return _id; }

    /** Line state; Invalid when not present. */
    MoesiState state(topology::Addr line) const;

    /** Version of the data copy held (meaningless when Invalid). */
    std::uint64_t version(topology::Addr line) const;

    /** Install/transition a line. */
    void setLine(topology::Addr line, MoesiState state,
                 std::uint64_t version);

    /** Downgrade/invalidate; removes the line when Invalid. */
    void setState(topology::Addr line, MoesiState state);

    /** Lines currently held (non-Invalid). */
    std::size_t heldLines() const { return _lines.size(); }

    /** Drop every copy (cold peer), keeping the table's storage. */
    void reset() { _lines.clear(); }

  private:
    std::size_t _id;
    /** Held copies by line; an Invalid line has no entry. */
    sim::FlatMap<Copy> _lines;
};

} // namespace corona::coherence

#endif // CORONA_COHERENCE_CACHE_PEER_HH
